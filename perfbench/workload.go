package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"smvx/internal/apps/apputil"
	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/cli"
	"smvx/internal/core"
	"smvx/internal/experiments"
	"smvx/internal/sim/clock"
	"smvx/internal/sim/kernel"
	"smvx/internal/sim/machine"
	"smvx/internal/workload"
)

const (
	// port is the loopback port nginx listens on.
	port = 8080
	// protectedFn is the paper's protected region: the outermost function
	// the taint analysis flags, entered once per request.
	protectedFn = "ngx_http_process_request_line"
	// defaultOps is the number of measured operations in one round. Run
	// length is part of each workload's definition: under MVX the cost of
	// a request grows with the requests one boot has served, so every
	// round boots a fresh server and serves one warm-up request plus
	// exactly this many operations.
	defaultOps = 500
	// attackEvery makes one operation in attackEvery a CVE-2013-2028
	// delivery on nginx-rollback-attack.
	attackEvery = 10
	// pwnedDir is the directory the exploit's ROP chain tries to create.
	pwnedDir = "/pwned"
	// workerTimeout bounds the wait for the worker to exit once the last
	// operation is done; a worker still running then has lost a request.
	workerTimeout = 30 * time.Second
	// opTimeout bounds one operation. An operation takes milliseconds; one
	// still waiting after this long is talking to a dead or hung worker.
	opTimeout = 10 * time.Second
)

// workloadSpec is one nginx configuration driven by a single closed-loop
// client: one kernel process with one connection at a time.
type workloadSpec struct {
	name string
	why  string
	// protect runs ngx_http_process_request_line as a protected region on
	// every request; false runs nginx without a monitor.
	protect bool
	// lockstep, lagWindow, variants and policy are the smvx CLI's
	// -lockstep, -lag-window, -variants and -policy flags.
	lockstep  string
	lagWindow int
	variants  int
	policy    string
	// attack serves the vulnerable nginx, turns one operation in
	// attackEvery into an exploit delivery, and attaches the observability
	// plane that -blackbox DIR -ledger -incidents builds.
	attack bool
}

// workloads are chosen so that each layer a later change is likely to
// touch does most of the work in one workload and none in another; see
// README.md for the map from layer to workload.
var workloads = []workloadSpec{
	{
		name: "nginx-native",
		why:  "no monitor: the substrate does all the work and libc dispatch skips the interposer; the control and the percent-of-native base",
	},
	{
		name: "nginx-strict", protect: true,
		lockstep: "strict", variants: 2, policy: "kill-both",
		why: "the paper's setup: a protected region per request, strict lockstep, N=2; variant creation and the pair rendezvous do the work",
	},
	{
		name: "nginx-pipelined-n3", protect: true,
		lockstep: "pipelined", lagWindow: 16, variants: 3, policy: "kill-both",
		why: "pipelined lockstep with lag 16 and N=3 voting: the run-ahead ring, barriers, the vote and a second follower replace the pair path",
	},
	{
		name: "nginx-rollback-attack", protect: true, attack: true,
		lockstep: "strict", variants: 2, policy: "rollback",
		why: "vulnerable nginx under rollback with the WAL, ledger and incident plane; one op in ten is a CVE-2013-2028 delivery that must roll back",
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// config builds the run configuration exactly as the smvx CLI's flags
// would: registering the shared flag set fills in every default.
func (w workloadSpec) config(seed int64, walDir string) cli.Config {
	var cfg cli.Config
	cfg.Register(flag.NewFlagSet(w.name, flag.ContinueOnError))
	cfg.Seed = seed
	cfg.NeedRecorder = true
	cfg.Quiet = true
	if w.protect {
		cfg.Lockstep = w.lockstep
		cfg.Variants = w.variants
		cfg.Policy = w.policy
		if w.lagWindow > 0 {
			cfg.LagWindow = w.lagWindow
		}
	}
	if w.attack {
		cfg.Blackbox = walDir
		cfg.Ledger = true
		cfg.Incidents = true
	}
	return cfg
}

// attackPlan marks which of ops operations are exploit deliveries: one in
// each block of attackEvery, at a seeded offset that is never the block's
// first slot, so two deliveries are never adjacent.
func attackPlan(seed int64, ops int) []bool {
	plan := make([]bool, ops)
	rng := rand.New(rand.NewSource(seed))
	for b := 0; b < ops; b += attackEvery {
		if i := b + 1 + rng.Intn(attackEvery-1); i < ops {
			plan[i] = true
		}
	}
	return plan
}

// round is one boot of nginx serving one warm-up request and then the
// measured operations.
type round struct {
	setup time.Duration
	// speed is the host's speed around the round, read by the speed probe.
	speed float64
	// attempted and failed count the measured operations; served counts
	// the benign ones answered with the exact page.
	attempted, failed, served int
	// host is the measured phase's host wall-clock time; mallocs and
	// allocBytes the Go heap allocations it made.
	host                time.Duration
	mallocs, allocBytes uint64
	gcs                 uint32
	gcPause             uint64
	gcCPU               float64
	// heapBytes is the live Go heap after a forced GC at the round's end.
	heapBytes uint64
	// sim holds the simulated end-to-end values and layer the per-layer
	// ones (see metrics.go for both tables).
	sim   map[string]float64
	layer map[string]float64
	// problems lists every failed output check.
	problems []string
}

func (rd *round) problem(format string, args ...any) {
	rd.problems = append(rd.problems, fmt.Sprintf(format, args...))
}

// server is one booted nginx and the handles a round reads.
type server struct {
	rt   *cli.Runtime
	k    *kernel.Kernel
	env  *boot.Env
	mon  *core.Monitor // nil without protection
	ex   *workload.Exploit
	done chan error
}

// start boots nginx for w the way the smvx CLI does, attaches the tracer's
// wrappers when tr is not nil, and starts the worker. The caller closes
// rt.Blackbox when the configuration opened one.
func start(w workloadSpec, seed int64, ops int, walDir string, tr *tracer) (*server, error) {
	cfg := w.config(seed, walDir)
	// The traced run reads the cost ledger. A ledger attached only for
	// tracing does not mirror into the recorder, so the recorder's event
	// stream stays the one the untraced run produces.
	tracedLedger := tr != nil && w.protect && !cfg.Ledger
	cfg.Ledger = cfg.Ledger || tracedLedger
	rt, err := cfg.Resolve(map[string]string{"app": "nginx", "workload": w.name})
	if err != nil {
		return nil, err
	}
	if tracedLedger {
		rt.Ledger.SetRecorder(nil)
	}
	s := &server{rt: rt, k: kernel.New(clock.DefaultCosts(), seed), done: make(chan error, 1)}

	ncfg := nginx.Config{
		Port:        port,
		MaxRequests: 1 + ops,
		Track:       &apputil.RequestTracker{App: "nginx", Rec: rt.Recorder, Fleet: rt.Fleet},
	}
	if w.protect {
		ncfg.Protect = protectedFn
	}
	if w.attack {
		ncfg.Version = nginx.VersionVulnerable
	}
	srv := nginx.NewServer(ncfg)
	if s.env, s.mon, err = rt.Boot(s.k, srv.Program(), seed, w.protect); err != nil {
		return nil, err
	}
	s.k.FS().WriteFile("/var/www/index.html", experiments.Page4K)
	if s.mon != nil {
		if err := s.mon.Setup(); err != nil {
			return nil, err
		}
		var mvx machine.MVX = s.mon
		if tr != nil {
			s.env.Machine.SetInterposer(&timedInterposer{next: s.mon, tr: tr})
			mvx = &timedMVX{MVX: s.mon, tr: tr}
		}
		srv.SetMVX(mvx)
	}
	if tr != nil {
		tr.wrapPlane(rt)
	}
	if w.attack {
		if s.ex, err = workload.BuildCVE2013_2028(s.env.Img, pwnedDir); err != nil {
			return nil, err
		}
	}
	th, err := s.env.MainThread()
	if err != nil {
		return nil, err
	}
	go func() { s.done <- srv.Run(th) }()
	return s, nil
}

// runRound boots one server and drives it. An error means the round could
// not be run at all; failed output checks are recorded in the round.
func runRound(w workloadSpec, seed int64, ops int, dir string, tr *tracer) (*round, error) {
	rd := &round{}
	t := time.Now()
	walDir := filepath.Join(dir, fmt.Sprintf("wal-%s-%d", w.name, os.Getpid()))
	s, err := start(w, seed, ops, walDir, tr)
	if err != nil {
		return nil, err
	}
	if s.rt.Blackbox != nil {
		defer os.RemoveAll(walDir)
		defer s.rt.Blackbox.Close() // error paths; the success path checks it
	}
	c := &client{proc: s.k.NewProcess(clock.NewCounter()), tr: tr}
	get := workload.GetRequest("/index.html")
	servedAll := 0
	if c.get(get) {
		servedAll++
	} else {
		rd.problem("warm-up request failed")
	}
	rd.setup = time.Since(t)

	var plan []bool
	if w.attack {
		plan = attackPlan(seed, ops)
	}
	c.timed = true
	rssStart := s.env.ResidentKB()
	var ms0, ms1 runtime.MemStats
	gc0 := readGCCPU()
	runtime.ReadMemStats(&ms0)
	t = time.Now()
	attacks := 0
	for i := 0; i < ops && !c.stuck; i++ {
		rd.attempted++
		if plan != nil && plan[i] {
			attacks++
			if !c.attack(s, attacks) {
				rd.failed++
			}
			continue
		}
		if c.get(get) {
			rd.served++
		} else {
			rd.failed++
		}
	}
	rd.host = time.Since(t)
	if c.stuck {
		// The worker stopped answering: every operation not run fails.
		rd.failed += ops - rd.attempted
		rd.attempted = ops
		rd.problem("an operation got no answer within %s", opTimeout)
	}
	runtime.ReadMemStats(&ms1)
	gc1 := readGCCPU()
	rd.mallocs = ms1.Mallocs - ms0.Mallocs
	rd.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	rd.gcs = ms1.NumGC - ms0.NumGC
	rd.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	rd.gcCPU = gc1.frac(gc0)
	servedAll += rd.served

	select {
	case err := <-s.done:
		if err != nil {
			rd.problem("worker died: %v", err)
		}
	case <-time.After(workerTimeout):
		return nil, errors.New("worker still running after the last operation")
	}
	s.check(w, attacks, rd)
	if s.rt.Blackbox != nil {
		if err := s.rt.Blackbox.Close(); err != nil {
			rd.problem("black-box WAL: %v", err)
		}
	}
	rd.sim = simValues(s.env, s.rt.Fleet, servedAll)
	rd.layer = layerValues(s.env, s.rt, s.mon, tr, c, servedAll, s.env.ResidentKB()-rssStart)

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rd.heapBytes = ms.HeapAlloc
	runtime.KeepAlive(s)
	return rd, nil
}

// check runs the end-of-round output checks on a server whose worker has
// exited.
func (s *server) check(w workloadSpec, attacks int, rd *round) {
	if s.mon == nil {
		return
	}
	if alarms := s.mon.Alarms(); !w.attack && len(alarms) > 0 {
		rd.problem("%d alarms on a clean workload, first: %s", len(alarms), alarms[0].Detail)
	}
	if !w.attack {
		return
	}
	if n := s.mon.Rollbacks(); n != attacks {
		rd.problem("%d rollbacks for %d deliveries", n, attacks)
	}
	if s.mon.Escalated() {
		rd.problem("rollback escalated to kill-both")
	}
	if n := s.mon.UnhandledAlarmCount(); n > 0 {
		rd.problem("%d unhandled alarms", n)
	}
	if s.k.FS().DirExists(pwnedDir) {
		rd.problem("%s exists: the exploit ran", pwnedDir)
	}
}

// client is the load generator: one kernel process issuing one operation
// at a time, each on a fresh connection, and timing its kernel calls.
type client struct {
	proc *kernel.Process
	tr   *tracer
	buf  []byte
	resp []byte
	// timed switches on per-operation timing once the warm-up is over.
	timed bool
	// stuck records that an operation timed out; the round stops there.
	stuck    bool
	connect  []time.Duration
	requests []time.Duration
}

// exchange connects, sends every record, and reads until the server
// closes the connection.
func (c *client) exchange(records ...[]byte) ([]byte, error) {
	reqID, reqStart := c.tr.beginRequest()
	defer c.tr.end(layerRequest, reqID, 0, reqStart)
	connID, connStart := c.tr.begin()
	start := time.Now()
	fd, e := c.proc.Socket()
	if e != kernel.OK {
		return nil, fmt.Errorf("socket: %w", e)
	}
	defer c.proc.Close(fd)
	// Closing the socket wakes a receive that would otherwise wait forever
	// on a worker that died.
	timer := time.AfterFunc(opTimeout, func() { c.proc.Close(fd) })
	defer func() {
		if !timer.Stop() {
			c.stuck = true
		}
	}()
	if e := c.proc.ConnectWait(fd, port, workload.DialTimeout); e != kernel.OK {
		return nil, fmt.Errorf("connect: %w", e)
	}
	sent := time.Now()
	c.tr.end(layerConnect, connID, reqID, connStart)
	for _, r := range records {
		if _, e := c.proc.Send(fd, r); e != kernel.OK {
			return nil, fmt.Errorf("send: %w", e)
		}
	}
	if c.buf == nil {
		c.buf = make([]byte, 4096)
	}
	c.resp = c.resp[:0]
	for {
		n, e := c.proc.Recv(fd, c.buf)
		if e != kernel.OK {
			return nil, fmt.Errorf("recv: %w", e)
		}
		if n == 0 {
			break
		}
		c.resp = append(c.resp, c.buf[:n]...)
	}
	if c.timed {
		c.connect = append(c.connect, sent.Sub(start))
		c.requests = append(c.requests, time.Since(sent))
	}
	return c.resp, nil
}

// get performs one benign GET and checks for the exact 4 KB page.
func (c *client) get(req []byte) bool {
	resp, err := c.exchange(req)
	if err != nil {
		return false
	}
	head, body, ok := bytes.Cut(resp, []byte("\r\n\r\n"))
	return ok && bytes.HasPrefix(head, []byte("HTTP/1.1 200")) && bytes.Equal(body, experiments.Page4K)
}

// attack delivers the exploit and waits for the server to drop the
// connection. The nth delivery succeeds when the worker rolled the region
// back: no response bytes, n rollbacks in all, and no /pwned.
func (c *client) attack(s *server, nth int) bool {
	resp, err := c.exchange(s.ex.Request, s.ex.Body)
	return err == nil && len(resp) == 0 && s.mon.Rollbacks() == nth && !s.k.FS().DirExists(pwnedDir)
}
