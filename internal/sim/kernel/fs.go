package kernel

import (
	"sort"
	"strings"
	"sync"
)

// FS is the in-memory filesystem. Paths are absolute, slash-separated;
// directories are implicit (created by WriteFile) plus any made with Mkdir.
type FS struct {
	mu    sync.Mutex
	files map[string]*inode
	dirs  map[string]bool
}

type inode struct {
	mu   sync.Mutex
	data []byte
}

func newFS() *FS {
	return &FS{
		files: make(map[string]*inode),
		dirs:  map[string]bool{"/": true, "/tmp": true, "/dev": true, "/proc": true},
	}
}

// WriteFile creates or replaces a file, creating parent directories.
func (fs *FS) WriteFile(path string, data []byte) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[path] = &inode{data: append([]byte(nil), data...)}
	for dir := parentDir(path); dir != "/" && dir != ""; dir = parentDir(dir) {
		fs.dirs[dir] = true
	}
}

// ReadFile returns a copy of the file contents.
func (fs *FS) ReadFile(path string) ([]byte, Errno) {
	fs.mu.Lock()
	ino, ok := fs.files[path]
	fs.mu.Unlock()
	if !ok {
		return nil, ENOENT
	}
	ino.mu.Lock()
	defer ino.mu.Unlock()
	return append([]byte(nil), ino.data...), OK
}

// Exists reports whether a file exists at path.
func (fs *FS) Exists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, ok := fs.files[path]
	return ok
}

// DirExists reports whether a directory exists at path.
func (fs *FS) DirExists(path string) bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.dirs[strings.TrimSuffix(path, "/")] || path == "/"
}

// List returns the file paths under prefix, sorted.
func (fs *FS) List(prefix string) []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []string
	for p := range fs.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

func parentDir(path string) string {
	i := strings.LastIndexByte(path, '/')
	if i <= 0 {
		return "/"
	}
	return path[:i]
}

// openFile is a file description with a seek offset.
type openFile struct {
	path  string
	inode *inode
	mu    sync.Mutex
	off   int
	flags int
}

// Open flags (subset of O_*).
const (
	ORdonly = 0x0
	OWronly = 0x1
	ORdwr   = 0x2
	OCreat  = 0x40
	OTrunc  = 0x200
	OAppend = 0x400
)

// Stat describes a file for the stat/fstat syscalls. The layout mirrors the
// fields sMVX must copy to the follower's stat buffer (a "return value and
// argument buffer" emulation case in Table 1).
type Stat struct {
	// Size is the file length in bytes.
	Size int64
	// Mode is 1 for regular files, 2 for directories, 3 for devices.
	Mode int64
	// MTimeUnix is the modification time (fixed at the simulated epoch).
	MTimeUnix int64
}

// Open opens a path, honoring OCreat and OTrunc.
func (p *Process) Open(path string, flags int) (int, Errno) {
	p.enter("open")
	if path == "/dev/urandom" {
		return p.install(&FD{kind: fdURandom})
	}
	if path == "/dev/null" {
		return p.install(&FD{kind: fdNull})
	}
	fs := p.k.fs
	fs.mu.Lock()
	ino, ok := fs.files[path]
	if !ok {
		if flags&OCreat == 0 {
			fs.mu.Unlock()
			return -1, ENOENT
		}
		ino = &inode{}
		fs.files[path] = ino
	}
	fs.mu.Unlock()
	if flags&OTrunc != 0 {
		ino.mu.Lock()
		ino.data = nil
		ino.mu.Unlock()
	}
	of := &openFile{path: path, inode: ino, flags: flags}
	if flags&OAppend != 0 {
		ino.mu.Lock()
		of.off = len(ino.data)
		ino.mu.Unlock()
	}
	return p.install(&FD{kind: fdFile, file: of})
}

// Read reads up to len(buf) bytes from the descriptor into buf.
func (p *Process) Read(fd int, buf []byte) (int, Errno) {
	p.enter("read")
	f, e := p.lookup(fd)
	if e != OK {
		return -1, e
	}
	return p.read(f, buf)
}

// Receive is Read, or Recv when recv is set, for a caller that copies the
// bytes elsewhere: it returns up to n bytes instead of filling a caller's
// buffer. On a connection they are a view of the next queued send record,
// the immutable copy send made, so nothing is staged and the caller must
// not write to them. Other descriptors read into a fresh n-byte buffer.
func (p *Process) Receive(fd, n int, recv bool) ([]byte, Errno) {
	if recv {
		p.enter("recv")
	} else {
		p.enter("read")
	}
	f, e := p.lookup(fd)
	if e != OK {
		return nil, e
	}
	if f.kind == fdConn && f.conn != nil {
		return f.conn.next(n)
	}
	if recv {
		return nil, ENOTCONN
	}
	buf := make([]byte, n)
	got, e := p.read(f, buf)
	if e != OK {
		return nil, e
	}
	return buf[:got], OK
}

// read reads up to len(buf) bytes from an open descriptor into buf.
func (p *Process) read(f *FD, buf []byte) (int, Errno) {
	switch f.kind {
	case fdFile:
		of := f.file
		of.mu.Lock()
		defer of.mu.Unlock()
		of.inode.mu.Lock()
		defer of.inode.mu.Unlock()
		if of.off >= len(of.inode.data) {
			return 0, OK
		}
		n := copy(buf, of.inode.data[of.off:])
		of.off += n
		return n, OK
	case fdURandom:
		p.k.mu.Lock()
		for i := range buf {
			buf[i] = byte(p.k.rng.Intn(256))
		}
		p.k.mu.Unlock()
		return len(buf), OK
	case fdNull:
		return 0, OK
	case fdConn:
		if f.conn == nil {
			return -1, ENOTCONN
		}
		return f.conn.recv(buf, p.k)
	default:
		return -1, EINVAL
	}
}

// Write writes buf to the descriptor.
func (p *Process) Write(fd int, buf []byte) (int, Errno) {
	p.enter("write")
	return p.writeLocked(fd, buf)
}

func (p *Process) writeLocked(fd int, buf []byte) (int, Errno) {
	f, e := p.lookup(fd)
	if e != OK {
		return -1, e
	}
	switch f.kind {
	case fdFile:
		of := f.file
		if of.flags&(OWronly|ORdwr|OAppend|OCreat) == 0 && of.flags != ORdwr {
			// Read-only description.
			if of.flags == ORdonly {
				return -1, EBADF
			}
		}
		of.mu.Lock()
		defer of.mu.Unlock()
		of.inode.mu.Lock()
		defer of.inode.mu.Unlock()
		for len(of.inode.data) < of.off {
			of.inode.data = append(of.inode.data, 0)
		}
		of.inode.data = append(of.inode.data[:of.off], append(append([]byte(nil), buf...), of.inode.data[min(of.off+len(buf), len(of.inode.data)):]...)...)
		of.off += len(buf)
		return len(buf), OK
	case fdNull:
		return len(buf), OK
	case fdConn:
		return f.conn.send(buf, p.k)
	default:
		return -1, EINVAL
	}
}

// Writev writes all iovecs to the descriptor, returning total bytes.
func (p *Process) Writev(fd int, iovs [][]byte) (int, Errno) {
	p.enter("writev")
	total := 0
	for _, iov := range iovs {
		n, e := p.writeLocked(fd, iov)
		if e != OK {
			return -1, e
		}
		total += n
	}
	return total, OK
}

// StatPath implements stat(2).
func (p *Process) StatPath(path string) (Stat, Errno) {
	p.enter("stat")
	fs := p.k.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if ino, ok := fs.files[path]; ok {
		ino.mu.Lock()
		defer ino.mu.Unlock()
		return Stat{Size: int64(len(ino.data)), Mode: 1, MTimeUnix: p.k.baseTime.Unix()}, OK
	}
	if fs.dirs[strings.TrimSuffix(path, "/")] {
		return Stat{Mode: 2, MTimeUnix: p.k.baseTime.Unix()}, OK
	}
	return Stat{}, ENOENT
}

// Fstat implements fstat(2).
func (p *Process) Fstat(fd int) (Stat, Errno) {
	p.enter("fstat")
	f, e := p.lookup(fd)
	if e != OK {
		return Stat{}, e
	}
	switch f.kind {
	case fdFile:
		f.file.inode.mu.Lock()
		defer f.file.inode.mu.Unlock()
		return Stat{Size: int64(len(f.file.inode.data)), Mode: 1, MTimeUnix: p.k.baseTime.Unix()}, OK
	case fdURandom, fdNull:
		return Stat{Mode: 3, MTimeUnix: p.k.baseTime.Unix()}, OK
	default:
		return Stat{Mode: 3, MTimeUnix: p.k.baseTime.Unix()}, OK
	}
}

// Sendfile copies count bytes from the in-file's current offset to out
// (a socket or file), implementing sendfile(2) as nginx uses it.
func (p *Process) Sendfile(outFD, inFD int, count int) (int, Errno) {
	p.enter("sendfile")
	in, e := p.lookup(inFD)
	if e != OK {
		return -1, e
	}
	if in.kind != fdFile {
		return -1, EINVAL
	}
	of := in.file
	of.mu.Lock()
	of.inode.mu.Lock()
	avail := len(of.inode.data) - of.off
	if avail < 0 {
		avail = 0
	}
	if count > avail {
		count = avail
	}
	chunk := append([]byte(nil), of.inode.data[of.off:of.off+count]...)
	of.off += count
	of.inode.mu.Unlock()
	of.mu.Unlock()
	if count == 0 {
		return 0, OK
	}
	return p.writeLocked(outFD, chunk)
}

// Mkdir implements mkdir(2). The CVE-2013-2028 ROP chain's final gadget
// jumps to mkdir, so its observable effect matters for the security
// experiment.
func (p *Process) Mkdir(path string) Errno {
	p.enter("mkdir")
	fs := p.k.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	clean := strings.TrimSuffix(path, "/")
	if fs.dirs[clean] {
		return EEXIST
	}
	if _, ok := fs.files[clean]; ok {
		return EEXIST
	}
	fs.dirs[clean] = true
	return OK
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
