// Package nginx is the simulation's Nginx: an epoll-driven static web
// server with the call graph the paper instruments and profiles —
// ngx_worker_process_cycle down through ngx_http_process_request_line (the
// outermost tainted function, Section 4.1), ngx_http_handler,
// ngx_http_header_filter, the access-log path, an HTTP basic-auth module
// (for the authentication-discovery experiment), and the version-gated
// chunked-transfer-encoding bug of CVE-2013-2028 (Section 4.2).
package nginx

import (
	"smvx/internal/apps/apputil"
	"smvx/internal/sim/image"
	"smvx/internal/sim/machine"
	"smvx/internal/sim/mem"
)

// Version strings selecting the CVE-2013-2028 behavior.
const (
	// VersionVulnerable is nginx 1.3.9: the chunked size is sign-miscast.
	VersionVulnerable = "1.3.9"
	// VersionFixed is nginx 1.4.1: the discard read is bounded.
	VersionFixed = "1.4.1"
)

// Candidate protected roots, outermost first — the x-axis of Figure 8.
var Fig8Roots = []string{
	"main",
	"ngx_master_process_cycle",
	"ngx_worker_process_cycle",
	"ngx_process_events_and_timers",
	"ngx_epoll_process_events",
	"ngx_http_process_request_line",
	"ngx_http_handler",
	"ngx_http_header_filter",
}

// TaintedRoots are the functions the taint analysis flags (Section 3.2).
var TaintedRoots = []string{
	"ngx_http_process_request_line",
	"ngx_http_handler",
	"ngx_http_header_filter",
}

// Config parameterizes a server run.
type Config struct {
	// Port is the listen port.
	Port uint16
	// DocRoot is the filesystem prefix for static files.
	DocRoot string
	// Version selects CVE behavior (VersionVulnerable or VersionFixed).
	Version string
	// MaxRequests stops the worker after that many requests (0 = until
	// the listener closes).
	MaxRequests int
	// Protect names the mvx-protected root function ("" = none).
	Protect string
	// MVX is the protection engine (nil = vanilla).
	MVX machine.MVX
	// AuthUser/AuthPass guard the /private path via basic auth.
	AuthUser, AuthPass string
	// AccessLog enables the gettimeofday/localtime_r/write log path.
	AccessLog bool
	// PoolKB is the connection/request pool volume preallocated by the
	// worker at startup. Default 256.
	PoolKB int
	// OnRequest, when non-nil, is invoked from the serve loop after each
	// completed request with the running total — the live telemetry
	// plane's progress hook. It runs on the worker goroutine and must not
	// touch simulated state.
	OnRequest func(total uint64)
	// Track, when non-nil, records per-request latency spans
	// (accept → response → close) keyed by connection slot. Hooks run on
	// the worker goroutine and must not touch simulated state.
	Track *apputil.RequestTracker
}

// connection-slot layout in ngx_connections (.bss): 4 words per slot.
const (
	connSlotSize = 32
	connMax      = 64
	connOffFD    = 0
	connOffBuf   = 8
	connOffLen   = 16
	connOffState = 24
)

const recvBufSize = 1024

// BuildImage lays out the nginx binary image.
func BuildImage() *image.Image {
	return image.NewBuilder("nginx", 0x400000).
		AddFunc("main", 192).
		AddFunc("ngx_master_process_cycle", 256).
		AddFunc("ngx_worker_process_cycle", 512).
		AddFunc("ngx_process_events_and_timers", 384).
		AddFunc("ngx_epoll_process_events", 512).
		AddFunc("ngx_event_accept", 256).
		AddFunc("ngx_http_wait_request_handler", 384).
		AddFunc("ngx_http_process_request_line", 768).
		AddFunc("ngx_http_process_request_headers", 1024).
		AddFunc("ngx_http_process_request", 512).
		AddFunc("ngx_http_handler", 512).
		AddFunc("ngx_http_auth_basic_handler", 384).
		AddFunc("ngx_http_core_content_phase", 256).
		AddFunc("ngx_http_static_handler", 768).
		AddFunc("ngx_http_header_filter", 512).
		AddFunc("ngx_http_special_response_handler", 256).
		AddFunc("ngx_http_read_discarded_request_body", 512).
		AddFunc("ngx_http_parse_chunked", 384).
		AddFunc("ngx_http_log_handler", 384).
		AddFunc("ngx_http_finalize_request", 256).
		AddFunc("ngx_close_connection", 128).
		AddData("ngx_listen_fd", 8, nil).
		AddData("ngx_epoll_fd", 8, nil).
		AddData("ngx_log_fd", 8, nil).
		AddData("ngx_request_count", 8, nil).
		AddData("ngx_stop_flag", 8, nil).
		AddData("ngx_max_requests", 8, nil).
		AddData("ngx_docroot", 64, nil).
		AddData("ngx_auth_user", 32, nil).
		AddData("ngx_auth_pass", 32, nil).
		AddBSS("ngx_connections", connMax*connSlotSize).
		AddBSS("ngx_events_buf", 16*16).
		AddBSS("ngx_uri_buf", 256).
		AddBSS("ngx_method_buf", 16).
		AddBSS("ngx_path_buf", 256).
		AddBSS("ngx_header_name_buf", 64).
		AddBSS("ngx_header_val_buf", 256).
		AddBSS("ngx_te_buf", 64).
		AddBSS("ngx_auth_buf", 128).
		AddBSS("ngx_stat_buf", 32).
		AddBSS("ngx_resp_buf", 512).
		AddBSS("ngx_log_buf", 512).
		AddBSS("ngx_time_buf", 128).
		AddBSS("ngx_iov_buf", 64).
		AddBSS("ngx_scratch", 1024).
		NeedLibc(
			"open", "close", "read", "write", "writev", "recv", "send",
			"socket", "bind", "listen", "accept4", "shutdown",
			"setsockopt", "getsockopt", "ioctl",
			"epoll_create", "epoll_ctl", "epoll_wait", "epoll_pwait",
			"stat", "fstat", "sendfile", "mkdir",
			"gettimeofday", "time", "localtime_r", "random",
			"malloc", "free", "calloc", "realloc",
			"memcpy", "memset", "strlen", "strcmp", "strncmp", "atoi",
			"snprintf",
		).
		Build()
}

// Server is one configured nginx instance: the program image bound to
// bodies that honor the configuration.
type Server struct {
	cfg  Config
	prog *machine.Program
	g    globals
}

// globals are the server's .data and .bss symbols, resolved once when
// the server is built.
type globals struct {
	listenFD      machine.Global // ngx_listen_fd
	epollFD       machine.Global // ngx_epoll_fd
	logFD         machine.Global // ngx_log_fd
	requestCount  machine.Global // ngx_request_count
	stopFlag      machine.Global // ngx_stop_flag
	maxRequests   machine.Global // ngx_max_requests
	docroot       machine.Global // ngx_docroot
	authUser      machine.Global // ngx_auth_user
	authPass      machine.Global // ngx_auth_pass
	connections   machine.Global // ngx_connections
	eventsBuf     machine.Global // ngx_events_buf
	uriBuf        machine.Global // ngx_uri_buf
	methodBuf     machine.Global // ngx_method_buf
	pathBuf       machine.Global // ngx_path_buf
	headerNameBuf machine.Global // ngx_header_name_buf
	headerValBuf  machine.Global // ngx_header_val_buf
	teBuf         machine.Global // ngx_te_buf
	authBuf       machine.Global // ngx_auth_buf
	statBuf       machine.Global // ngx_stat_buf
	respBuf       machine.Global // ngx_resp_buf
	logBuf        machine.Global // ngx_log_buf
	timeBuf       machine.Global // ngx_time_buf
	iovBuf        machine.Global // ngx_iov_buf
	scratch       machine.Global // ngx_scratch
}

// resolveGlobals resolves every global the bodies use in prog's image.
func resolveGlobals(prog *machine.Program) globals {
	return globals{
		listenFD:      prog.Global("ngx_listen_fd"),
		epollFD:       prog.Global("ngx_epoll_fd"),
		logFD:         prog.Global("ngx_log_fd"),
		requestCount:  prog.Global("ngx_request_count"),
		stopFlag:      prog.Global("ngx_stop_flag"),
		maxRequests:   prog.Global("ngx_max_requests"),
		docroot:       prog.Global("ngx_docroot"),
		authUser:      prog.Global("ngx_auth_user"),
		authPass:      prog.Global("ngx_auth_pass"),
		connections:   prog.Global("ngx_connections"),
		eventsBuf:     prog.Global("ngx_events_buf"),
		uriBuf:        prog.Global("ngx_uri_buf"),
		methodBuf:     prog.Global("ngx_method_buf"),
		pathBuf:       prog.Global("ngx_path_buf"),
		headerNameBuf: prog.Global("ngx_header_name_buf"),
		headerValBuf:  prog.Global("ngx_header_val_buf"),
		teBuf:         prog.Global("ngx_te_buf"),
		authBuf:       prog.Global("ngx_auth_buf"),
		statBuf:       prog.Global("ngx_stat_buf"),
		respBuf:       prog.Global("ngx_resp_buf"),
		logBuf:        prog.Global("ngx_log_buf"),
		timeBuf:       prog.Global("ngx_time_buf"),
		iovBuf:        prog.Global("ngx_iov_buf"),
		scratch:       prog.Global("ngx_scratch"),
	}
}

// server aliases Server for the body methods.
type server = Server

// NewServer builds a configured server and its program.
func NewServer(cfg Config) *Server {
	if cfg.Version == "" {
		cfg.Version = VersionFixed
	}
	if cfg.DocRoot == "" {
		cfg.DocRoot = "/var/www"
	}
	if cfg.PoolKB == 0 {
		cfg.PoolKB = 64
	}
	s := &Server{cfg: cfg}
	s.prog = machine.NewProgram(BuildImage())
	s.g = resolveGlobals(s.prog)
	s.define(s.prog)
	return s
}

// Program returns the server's program, for boot.NewEnv.
func (s *Server) Program() *machine.Program { return s.prog }

// Config returns the server's configuration.
func (s *Server) Config() Config { return s.cfg }

// SetMVX installs the protection engine after construction.
func (s *Server) SetMVX(m machine.MVX) { s.cfg.MVX = m }

// protectCall wraps t.Call in mvx_start/mvx_end when name is the protected
// root. The region runs through MVX.Invoke: a survivable policy (rollback)
// can unwind a hijacked region back to this boundary — the worker survives
// the exploit instead of dying mid-ROP-chain.
func (s *server) protectCall(t *machine.Thread, name string, args ...uint64) uint64 {
	ret, _ := apputil.CallProtected(t, s.cfg.MVX, s.cfg.Protect, name, args...)
	return ret
}

func (s *server) define(prog *machine.Program) {
	prog.MustDefine("main", s.fnMain)
	prog.MustDefine("ngx_master_process_cycle", s.fnMasterCycle)
	prog.MustDefine("ngx_worker_process_cycle", s.fnWorkerCycle)
	prog.MustDefine("ngx_process_events_and_timers", s.fnProcessEvents)
	prog.MustDefine("ngx_epoll_process_events", s.fnEpollProcessEvents)
	prog.MustDefine("ngx_event_accept", s.fnEventAccept)
	prog.MustDefine("ngx_http_wait_request_handler", s.fnWaitRequestHandler)
	prog.MustDefine("ngx_http_process_request_line", s.fnProcessRequestLine)
	prog.MustDefine("ngx_http_process_request_headers", s.fnProcessRequestHeaders)
	prog.MustDefine("ngx_http_process_request", s.fnProcessRequest)
	prog.MustDefine("ngx_http_handler", s.fnHTTPHandler)
	prog.MustDefine("ngx_http_auth_basic_handler", s.fnAuthBasic)
	prog.MustDefine("ngx_http_core_content_phase", s.fnContentPhase)
	prog.MustDefine("ngx_http_static_handler", s.fnStaticHandler)
	prog.MustDefine("ngx_http_header_filter", s.fnHeaderFilter)
	prog.MustDefine("ngx_http_special_response_handler", s.fnSpecialResponse)
	prog.MustDefine("ngx_http_read_discarded_request_body", s.fnReadDiscardedBody)
	prog.MustDefine("ngx_http_parse_chunked", s.fnParseChunked)
	prog.MustDefine("ngx_http_log_handler", s.fnLogHandler)
	prog.MustDefine("ngx_http_finalize_request", s.fnFinalizeRequest)
	prog.MustDefine("ngx_close_connection", s.fnCloseConnection)
}

// Run executes the server's main() on the given thread, with mvx_init if
// protection is configured. It returns when the worker loop exits.
func (s *Server) Run(t *machine.Thread) error {
	if s.cfg.MVX != nil {
		if err := s.cfg.MVX.Init(t); err != nil {
			return err
		}
	}
	return t.Run(func(t *machine.Thread) {
		s.protectCall(t, "main")
	})
}

// ---- function bodies ----

func (s *server) fnMain(t *machine.Thread, _ []uint64) uint64 {
	t.Block("init")
	// Install configuration into .data (the parsed nginx.conf).
	t.WriteCString(s.g.docroot.In(t), s.cfg.DocRoot)
	t.WriteCString(s.g.authUser.In(t), s.cfg.AuthUser)
	t.WriteCString(s.g.authPass.In(t), s.cfg.AuthPass)
	t.Store64(s.g.maxRequests.In(t), uint64(s.cfg.MaxRequests))
	t.Store64(s.g.stopFlag.In(t), 0)
	t.Store64(s.g.requestCount.In(t), 0)
	t.Compute(2000) // config parsing
	return s.protectCall(t, "ngx_master_process_cycle")
}

func (s *server) fnMasterCycle(t *machine.Thread, _ []uint64) uint64 {
	t.Block("master")
	// Single worker configuration (as in the paper's memory experiment).
	t.Compute(500)
	return s.protectCall(t, "ngx_worker_process_cycle")
}

func (s *server) fnWorkerCycle(t *machine.Thread, _ []uint64) uint64 {
	t.Block("worker-init")
	lfd := t.Libc("socket")
	t.Libc("setsockopt", lfd, 2 /* SO_REUSEADDR */, 1)
	if int64(t.Libc("bind", lfd, uint64(s.cfg.Port))) < 0 {
		return 1
	}
	t.Libc("listen", lfd, 511)
	epfd := t.Libc("epoll_create")
	// Register the listener with its fd as epoll_data.
	scratch := s.g.scratch.In(t)
	t.Store64(scratch, 1 /* EPOLLIN */)
	t.Store64(scratch+8, lfd)
	t.Libc("epoll_ctl", epfd, 1 /* ADD */, lfd, uint64(scratch))
	t.Store64(s.g.listenFD.In(t), lfd)
	t.Store64(s.g.epollFD.In(t), epfd)

	if s.cfg.AccessLog {
		path := scratch + 64
		t.WriteCString(path, "/var/log/nginx/access.log")
		logFD := t.Libc("open", uint64(path), 0x441 /* O_WRONLY|O_CREAT|O_APPEND */)
		t.Store64(s.g.logFD.In(t), logFD)
	} else {
		t.Store64(s.g.logFD.In(t), ^uint64(0))
	}
	t.Memset(s.g.connections.In(t), 0, connMax*connSlotSize)

	// Preallocate the worker's connection/request pools (ngx_palloc
	// arenas); resident heap the variant-creation scan must cover.
	chunk := uint64(16 * 1024)
	for allocated := uint64(0); allocated < uint64(s.cfg.PoolKB)*1024; allocated += chunk {
		p := t.Libc("malloc", chunk)
		if p == 0 {
			break
		}
		t.Libc("memset", p, 0, chunk)
	}

	t.Block("worker-loop")
	for t.Load64(s.g.stopFlag.In(t)) == 0 {
		s.protectCall(t, "ngx_process_events_and_timers")
	}

	t.Block("worker-exit")
	// Drain connections still open at shutdown so their clients see EOF
	// instead of hanging, and their spans are accounted as aborted.
	for i := 0; i < connMax; i++ {
		slot := s.g.connections.In(t) + mem.Addr(i*connSlotSize)
		if t.Load64(slot+connOffFD) != 0 {
			s.protectCall(t, "ngx_close_connection", uint64(slot))
		}
	}
	if t.Bias() == 0 { // follower re-runs the loop; only the leader tracks spans
		s.cfg.Track.CloseAll()
	}
	if logFD := t.Load64(s.g.logFD.In(t)); int64(logFD) >= 0 {
		t.Libc("close", logFD)
	}
	t.Libc("close", epfd)
	t.Libc("close", lfd)
	return 0
}

func (s *server) fnProcessEvents(t *machine.Thread, _ []uint64) uint64 {
	t.Block("events")
	t.Compute(100) // timer bookkeeping
	return s.protectCall(t, "ngx_epoll_process_events")
}

func (s *server) fnEpollProcessEvents(t *machine.Thread, _ []uint64) uint64 {
	epfd := t.Load64(s.g.epollFD.In(t))
	lfd := t.Load64(s.g.listenFD.In(t))
	evBuf := s.g.eventsBuf.In(t)
	n := t.Libc("epoll_wait", epfd, uint64(evBuf), 16, ^uint64(0))
	if int64(n) <= 0 {
		t.Store64(s.g.stopFlag.In(t), 1)
		return 0
	}
	for i := uint64(0); i < n; i++ {
		events := t.Load64(evBuf + mem.Addr(i*16))
		data := t.Load64(evBuf + mem.Addr(i*16+8))
		if data == lfd {
			t.Block("accept-ready")
			s.protectCall(t, "ngx_event_accept")
			continue
		}
		// data is a pointer to the connection slot (the epoll_data
		// pointer case the monitor must translate, Section 3.3).
		if events&0x1 == 0 && events&0x10 != 0 {
			// EPOLLHUP with nothing left to read: peer went away.
			t.Block("conn-hup")
			s.protectCall(t, "ngx_close_connection", data)
			continue
		}
		t.Block("conn-ready")
		s.protectCall(t, "ngx_http_wait_request_handler", data)
		if t.Load64(s.g.stopFlag.In(t)) != 0 {
			break
		}
	}
	return n
}

func (s *server) fnEventAccept(t *machine.Thread, _ []uint64) uint64 {
	// Deferred accept: find a free connection slot before accepting. With
	// every slot busy the connection stays in the listener backlog instead
	// of being accepted-and-dropped, so a high-concurrency sweep queues
	// rather than fails (the epoll listener event is level-triggered and
	// re-fires once a slot frees up).
	conns := s.g.connections.In(t)
	var slot mem.Addr
	for i := 0; i < connMax; i++ {
		addr := conns + mem.Addr(i*connSlotSize)
		if t.Load64(addr+connOffFD) == 0 {
			slot = addr
			break
		}
	}
	if slot == 0 {
		return 0
	}
	lfd := t.Load64(s.g.listenFD.In(t))
	fd := t.Libc("accept4", lfd)
	if int64(fd) < 0 {
		t.Store64(s.g.stopFlag.In(t), 1)
		return 0
	}
	t.Libc("setsockopt", fd, 1 /* TCP_NODELAY */, 1)
	buf := t.Libc("malloc", recvBufSize)
	t.Store64(slot+connOffFD, fd)
	t.Store64(slot+connOffBuf, buf)
	t.Store64(slot+connOffLen, 0)
	t.Store64(slot+connOffState, 1)
	// Register the connection with a POINTER as epoll_data.
	scratch := s.g.scratch.In(t)
	t.Store64(scratch, 1|0x10 /* EPOLLIN|EPOLLHUP */)
	t.Store64(scratch+8, uint64(slot))
	t.Libc("epoll_ctl", t.Load64(s.g.epollFD.In(t)), 1, fd, uint64(scratch))
	if t.Bias() == 0 {
		s.cfg.Track.Accept(uint64(slot))
	}
	return fd
}

func (s *server) fnWaitRequestHandler(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	fd := t.Load64(conn + connOffFD)
	buf := mem.Addr(t.Load64(conn + connOffBuf))
	n := t.Libc("recv", fd, uint64(buf), recvBufSize-1)
	if int64(n) <= 0 {
		t.Block("recv-eof")
		s.protectCall(t, "ngx_close_connection", uint64(conn))
		return 0
	}
	t.Store64(conn+connOffLen, n)
	t.Store8(buf+mem.Addr(n), 0) // NUL-terminate for the string parsers
	t.Block("request")
	// Allocate the request object from the connection pool, as
	// ngx_http_create_request does.
	req := t.Libc("calloc", 1, 256)
	t.Store64(conn+connOffState, req)
	_, rolled := apputil.CallProtected(t, s.cfg.MVX, s.cfg.Protect,
		"ngx_http_process_request_line", uint64(conn))
	if r := t.Load64(conn + connOffState); r != 0 {
		t.Libc("free", r)
		t.Store64(conn+connOffState, 0)
	}
	if rolled {
		// The region was undone: the request was never served and the
		// response path (send + close inside the region) never executed.
		// Drop the connection so the client sees EOF instead of waiting on
		// a response that no longer exists — the rolled-back request costs
		// one connection reset, not the worker.
		s.protectCall(t, "ngx_close_connection", uint64(conn))
	}

	// Account the request and stop at the configured limit.
	cnt := t.Load64(s.g.requestCount.In(t)) + 1
	t.Store64(s.g.requestCount.In(t), cnt)
	if max := t.Load64(s.g.maxRequests.In(t)); max > 0 && cnt >= max {
		t.Store64(s.g.stopFlag.In(t), 1)
	}
	if s.cfg.OnRequest != nil {
		s.cfg.OnRequest(cnt)
	}
	return n
}

// fnProcessRequestLine is the outermost tainted function: it parses the
// request line out of network-tainted bytes and drives the rest of request
// processing — its subtree consumes the bulk of per-request cycles
// (Section 4.1 reports 60.8% under ApacheBench).
func (s *server) fnProcessRequestLine(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	buf := mem.Addr(t.Load64(conn + connOffBuf))
	t.Block("parse-line")
	t.At(0x20)

	// Method: bytes up to the first space.
	method := s.g.methodBuf.In(t)
	i := 0
	for ; i < 15; i++ {
		c := t.Load8(buf + mem.Addr(i))
		if c == ' ' || c == 0 {
			break
		}
		t.Store8(method+mem.Addr(i), c)
	}
	t.Store8(method+mem.Addr(i), 0)
	i++

	// URI: bytes up to the next space.
	uri := s.g.uriBuf.In(t)
	j := 0
	for ; j < 255; j++ {
		c := t.Load8(buf + mem.Addr(i+j))
		if c == ' ' || c == '\r' || c == 0 {
			break
		}
		t.Store8(uri+mem.Addr(j), c)
	}
	t.Store8(uri+mem.Addr(j), 0)

	// Skip HTTP version up to CRLF.
	k := i + j
	for step := 0; step < 64; step++ {
		c := t.Load8(buf + mem.Addr(k))
		if c == '\n' || c == 0 {
			k++
			break
		}
		k++
	}
	t.Compute(600) // per-character validation machinery

	// Store method and URI on the request object and run the complex-URI
	// checks ngx_http_parse_complex_uri performs.
	if req := t.Load64(conn + connOffState); req != 0 {
		mlen := t.Libc("strlen", uint64(method))
		t.Libc("memcpy", req, uint64(method), mlen+1)
		ulen := t.Libc("strlen", uint64(uri))
		t.Libc("memcpy", req+32, uint64(uri), ulen+1)
	}
	scratch0 := s.g.scratch.In(t)
	t.WriteCString(scratch0+128, "..")
	t.Libc("strncmp", uint64(uri), uint64(scratch0+128), 2)

	headersEnd := t.Call("ngx_http_process_request_headers", uint64(conn), uint64(k))
	return t.Call("ngx_http_process_request", uint64(conn), headersEnd)
}

// header names checked, in nginx's scan order.
var headerNames = []string{
	"Host", "User-Agent", "Accept", "Connection",
	"Transfer-Encoding", "Authorization", "Content-Length",
}

func (s *server) fnProcessRequestHeaders(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	off := int(args[1])
	buf := mem.Addr(t.Load64(conn + connOffBuf))
	total := int(t.Load64(conn + connOffLen))
	t.Block("parse-headers")
	t.At(0x30)

	nameBuf := s.g.headerNameBuf.In(t)
	valBuf := s.g.headerValBuf.In(t)
	teBuf := s.g.teBuf.In(t)
	authBuf := s.g.authBuf.In(t)
	t.Store8(teBuf, 0)
	t.Store8(authBuf, 0)

	for off < total {
		// End of headers: blank line.
		if t.Load8(buf+mem.Addr(off)) == '\r' || t.Load8(buf+mem.Addr(off)) == '\n' {
			for off < total {
				c := t.Load8(buf + mem.Addr(off))
				off++
				if c == '\n' {
					break
				}
			}
			break
		}
		// name: value\r\n
		n := 0
		for off+n < total && n < 63 {
			c := t.Load8(buf + mem.Addr(off+n))
			if c == ':' {
				break
			}
			t.Store8(nameBuf+mem.Addr(n), c)
			n++
		}
		t.Store8(nameBuf+mem.Addr(n), 0)
		off += n + 1
		for off < total && t.Load8(buf+mem.Addr(off)) == ' ' {
			off++
		}
		v := 0
		for off+v < total && v < 255 {
			c := t.Load8(buf + mem.Addr(off+v))
			if c == '\r' || c == '\n' {
				break
			}
			t.Store8(valBuf+mem.Addr(v), c)
			v++
		}
		t.Store8(valBuf+mem.Addr(v), 0)
		off += v
		for off < total {
			c := t.Load8(buf + mem.Addr(off))
			off++
			if c == '\n' {
				break
			}
		}

		// Match against the known header table with libc string calls, the
		// way ngx_hash_find walks its bucket: every entry is compared (the
		// hash groups collide in the small table).
		nameLen := t.Libc("strlen", uint64(nameBuf))
		valLen := t.Libc("strlen", uint64(valBuf))
		scratch := s.g.scratch.In(t)
		for _, hn := range headerNames {
			t.WriteCString(scratch+256, hn)
			if t.Libc("strncmp", uint64(nameBuf), uint64(scratch+256), nameLen+1) == 0 {
				switch hn {
				case "Transfer-Encoding":
					t.Libc("memcpy", uint64(teBuf), uint64(valBuf), valLen+1)
				case "Authorization":
					t.Libc("memcpy", uint64(authBuf), uint64(valBuf), valLen+1)
				default:
					// Headers nginx stores on the request object.
					t.Libc("memcpy", uint64(scratch+512), uint64(valBuf), valLen+1)
				}
			}
		}
		// Lowercased name copy for the hash key (ngx_strlow).
		t.Libc("memcpy", uint64(scratch+384), uint64(nameBuf), nameLen+1)
	}
	return uint64(off)
}

func (s *server) fnProcessRequest(t *machine.Thread, args []uint64) uint64 {
	conn := args[0]
	t.Block("process")
	t.At(0x40)
	scratch := s.g.scratch.In(t)
	teBuf := s.g.teBuf.In(t)
	t.WriteCString(scratch+640, "chunked")
	if t.Libc("strcmp", uint64(teBuf), uint64(scratch+640)) == 0 {
		t.Block("chunked-body")
		t.Call("ngx_http_read_discarded_request_body", conn, args[1])
		t.Call("ngx_http_header_filter", conn, 200, 0)
	} else {
		t.Call("ngx_http_handler", conn)
	}
	t.Call("ngx_http_log_handler", conn)
	return t.Call("ngx_http_finalize_request", conn)
}

func (s *server) fnHTTPHandler(t *machine.Thread, args []uint64) uint64 {
	conn := args[0]
	uri := s.g.uriBuf.In(t)
	t.Block("handler")
	t.At(0x50)
	scratch := s.g.scratch.In(t)
	t.WriteCString(scratch+704, "/private")
	if t.Libc("strncmp", uint64(uri), uint64(scratch+704), 8) == 0 {
		if t.Call("ngx_http_auth_basic_handler", conn) != 0 {
			return 401
		}
	}
	return t.Call("ngx_http_core_content_phase", conn)
}

func (s *server) fnAuthBasic(t *machine.Thread, args []uint64) uint64 {
	conn := args[0]
	t.Block("auth-check")
	t.At(0x60)
	authBuf := s.g.authBuf.In(t)
	scratch := s.g.scratch.In(t)
	// Expected credential: "user:pass" (the simulation skips base64).
	user := t.CString(s.g.authUser.In(t), 31)
	pass := t.CString(s.g.authPass.In(t), 31)
	t.WriteCString(scratch+768, user+":"+pass)
	if t.Libc("strcmp", uint64(authBuf), uint64(scratch+768)) == 0 {
		t.Block("auth-ok")
		t.Compute(300) // session setup
		return 0
	}
	t.Block("auth-fail")
	t.Call("ngx_http_special_response_handler", conn, 401)
	return 1
}

func (s *server) fnContentPhase(t *machine.Thread, args []uint64) uint64 {
	t.Block("content-phase")
	t.Compute(200)
	return t.Call("ngx_http_static_handler", args[0])
}

func (s *server) fnStaticHandler(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	fd := t.Load64(conn + connOffFD)
	uri := s.g.uriBuf.In(t)
	path := s.g.pathBuf.In(t)
	t.Block("static")
	t.At(0x70)

	// path = docroot + uri (or +/index.html for "/").
	scratch := s.g.scratch.In(t)
	t.WriteCString(scratch+832, "%s%s")
	uriLen := t.Libc("strlen", uint64(uri))
	target := uint64(uri)
	if uriLen == 1 && t.Load8(uri) == '/' {
		t.WriteCString(scratch+896, "/index.html")
		target = uint64(scratch + 896)
	}
	t.Libc("snprintf", uint64(path), 255, uint64(scratch+832), uint64(s.g.docroot.In(t)), target)

	// MIME type lookup over the extension table.
	extTable := []string{".html", ".css", ".js", ".png"}
	pathLen := t.Libc("strlen", uint64(path))
	for _, ext := range extTable {
		t.WriteCString(scratch+960, ext)
		if pathLen >= uint64(len(ext)) {
			t.Libc("strncmp", uint64(path)+pathLen-uint64(len(ext)), uint64(scratch+960), uint64(len(ext)))
		}
	}

	statBuf := s.g.statBuf.In(t)
	if int64(t.Libc("stat", uint64(path), uint64(statBuf))) < 0 {
		t.Block("static-404")
		return t.Call("ngx_http_special_response_handler", uint64(conn), 404)
	}
	size := t.Load64(statBuf)
	file := t.Libc("open", uint64(path), 0)
	if int64(file) < 0 {
		return t.Call("ngx_http_special_response_handler", uint64(conn), 404)
	}
	t.Libc("fstat", file, uint64(statBuf))

	t.Call("ngx_http_header_filter", uint64(conn), 200, size)
	t.Libc("sendfile", fd, file, 0, size)
	t.Libc("close", file)
	t.Block("static-done")
	return 200
}

func (s *server) fnHeaderFilter(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	status := args[1]
	size := args[2]
	fd := t.Load64(conn + connOffFD)
	t.Block("header-filter")
	t.At(0x80)

	resp := s.g.respBuf.In(t)
	scratch := s.g.scratch.In(t)
	// Date header (ngx_http_time): formatted separately then spliced in.
	dateBuf := s.g.timeBuf.In(t) + 64
	t.WriteCString(scratch+896, "Date: day %d")
	t.Libc("snprintf", uint64(dateBuf), 48, uint64(scratch+896), size%7)
	t.Libc("strlen", uint64(dateBuf))
	t.WriteCString(scratch+960, "HTTP/1.1 %d OK\r\nServer: nginx/%s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n")
	verAddr := scratch + 896 - 64
	t.WriteCString(verAddr, s.cfg.Version)
	n := t.Libc("snprintf", uint64(resp), 511, uint64(scratch+960), status, uint64(verAddr), size)

	// writev the status line + headers as one gathering write.
	iov := s.g.iovBuf.In(t)
	t.Store64(iov, uint64(resp))
	t.Store64(iov+8, n)
	t.Libc("writev", fd, uint64(iov), 1)
	return n
}

func (s *server) fnSpecialResponse(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	status := args[1]
	fd := t.Load64(conn + connOffFD)
	t.Block("special-response")
	resp := s.g.respBuf.In(t)
	scratch := s.g.scratch.In(t)
	t.WriteCString(scratch+960, "HTTP/1.1 %d X\r\nContent-Length: 0\r\n\r\n")
	n := t.Libc("snprintf", uint64(resp), 511, uint64(scratch+960), status)
	t.Libc("send", fd, uint64(resp), n)
	return status
}

// fnReadDiscardedBody discards a chunked request body — the function
// CVE-2013-2028 exploits: in the vulnerable version the chunk size is
// sign-miscast, so the recv into the 4KiB stack buffer is unbounded.
func (s *server) fnReadDiscardedBody(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	fd := t.Load64(conn + connOffFD)
	t.Block("discard-body")
	t.At(0x90)

	size := t.Call("ngx_http_parse_chunked", uint64(conn), args[1])
	buf := t.Alloca(4096)

	var n uint64
	if s.cfg.Version == VersionVulnerable {
		// nginx 1.3.9: content_length_n is signed; a huge chunk size goes
		// negative, and the later size_t cast turns it into a huge read
		// bound. recv writes straight past the 4KiB discard buffer.
		signed := int64(size)
		bound := uint64(signed) // negative -> huge size_t
		n = t.Libc("recv", fd, uint64(buf), bound)
	} else {
		// Fixed: the read is bounded by the buffer size.
		bound := size
		if bound > 4096 {
			bound = 4096
		}
		n = t.Libc("recv", fd, uint64(buf), bound)
	}
	t.Block("discard-done")
	return n
}

func (s *server) fnParseChunked(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	off := int(args[1])
	buf := mem.Addr(t.Load64(conn + connOffBuf))
	total := int(t.Load64(conn + connOffLen))
	t.Block("parse-chunked")
	t.At(0xA0)
	// Parse the hex chunk-size line following the headers.
	var size uint64
	for off < total {
		c := t.Load8(buf + mem.Addr(off))
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return size
		}
		size = size<<4 | d
		off++
	}
	return size
}

func (s *server) fnLogHandler(t *machine.Thread, args []uint64) uint64 {
	logFD := t.Load64(s.g.logFD.In(t))
	if int64(logFD) < 0 {
		return 0
	}
	t.Block("access-log")
	tb := s.g.timeBuf.In(t)
	t.Libc("gettimeofday", uint64(tb), 0)
	sec := t.Load64(tb)
	t.Store64(tb+16, sec)
	t.Libc("localtime_r", uint64(tb+16), uint64(tb+24))
	t.Libc("strlen", uint64(s.g.methodBuf.In(t)))
	t.Libc("strlen", uint64(s.g.uriBuf.In(t)))
	logBuf := s.g.logBuf.In(t)
	scratch := s.g.scratch.In(t)
	t.WriteCString(scratch+960, "[%d:%d:%d] \"%s %s\" 200\n")
	hour := t.Load64(tb + 24 + 16)
	min := t.Load64(tb + 24 + 8)
	secs := t.Load64(tb + 24)
	n := t.Libc("snprintf", uint64(logBuf), 511, uint64(scratch+960),
		hour, min, secs, uint64(s.g.methodBuf.In(t)), uint64(s.g.uriBuf.In(t)))
	t.Libc("write", logFD, uint64(logBuf), n)
	return n
}

func (s *server) fnFinalizeRequest(t *machine.Thread, args []uint64) uint64 {
	t.Block("finalize")
	t.Compute(150)
	if t.Bias() == 0 {
		s.cfg.Track.Served(args[0])
	}
	return t.Call("ngx_close_connection", args[0])
}

func (s *server) fnCloseConnection(t *machine.Thread, args []uint64) uint64 {
	conn := mem.Addr(args[0])
	fd := t.Load64(conn + connOffFD)
	buf := t.Load64(conn + connOffBuf)
	t.Block("close-conn")
	epfd := t.Load64(s.g.epollFD.In(t))
	t.Libc("epoll_ctl", epfd, 2 /* DEL */, fd, 0)
	t.Libc("shutdown", fd, 1)
	t.Libc("close", fd)
	if buf != 0 {
		t.Libc("free", buf)
	}
	t.Store64(conn+connOffFD, 0)
	t.Store64(conn+connOffBuf, 0)
	t.Store64(conn+connOffLen, 0)
	t.Store64(conn+connOffState, 0)
	if t.Bias() == 0 {
		s.cfg.Track.Close(uint64(conn))
	}
	return 0
}
