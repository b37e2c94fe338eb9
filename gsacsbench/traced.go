package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/sparql"
	"repro/internal/store"
	"repro/internal/turtle"
	"repro/internal/wal"
)

// ledgerTolerance bounds how far the self times of a request's spans may sum
// from the request's measured time, as a share of that time.
const ledgerTolerance = 0.01

// span is one timed interval of the traced run. Times are nanoseconds since
// the run began; parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Kind   string `json:"kind,omitempty"`
	// Bytes counts what a wal.write span wrote.
	Bytes int64 `json:"bytes,omitempty"`
	// Calls counts the layer calls a span covers (decide and filter passes).
	Calls int `json:"calls,omitempty"`
	// OwlCalls and OwlNs total the reasoner calls made while this root was
	// current; reasoner calls are too many and too short to be spans.
	OwlCalls int   `json:"owl_calls,omitempty"`
	OwlNs    int64 `json:"owl_ns,omitempty"`
}

// spanLog keeps every span in memory until the run ends. Layers injected
// into the program (the reasoner and the WAL file system) attach their work
// to the current root, the request being replayed.
type spanLog struct {
	mu    sync.Mutex
	on    atomic.Bool
	t0    time.Time
	spans []span
	root  int
	req   int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now(), root: -1} }

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// startRoot opens a root span for request req and makes it current.
func (l *spanLog) startRoot(name, kind string) int {
	if !l.on.Load() {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: -1, Req: l.req, Kind: kind})
	l.root = len(l.spans) - 1
	return l.root
}

func (l *spanLog) start(name string, parent int) int {
	if !l.on.Load() || parent < 0 {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: parent, Req: l.req})
	return len(l.spans) - 1
}

// startInjected opens a span under the current root, if any.
func (l *spanLog) startInjected(name string) int {
	if !l.on.Load() {
		return -1
	}
	l.mu.Lock()
	root := l.root
	l.mu.Unlock()
	return l.start(name, root)
}

// startDetached opens a root span for background work without making it
// current.
func (l *spanLog) startDetached(name string) int {
	if !l.on.Load() {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Start: l.now(), Parent: -1, Req: l.req})
	return len(l.spans) - 1
}

// end closes span i. A span that outlives its parent was background work
// that happened to start during the request; it becomes a root of its own.
func (l *spanLog) end(i int) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[i]
	s.End = l.now()
	if s.Parent >= 0 && l.spans[s.Parent].End != 0 {
		s.Parent = -1
	}
	if i == l.root {
		l.root = -1
	}
}

func (l *spanLog) addBytes(i int, n int) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].Bytes += int64(n)
	l.mu.Unlock()
}

func (l *spanLog) setCalls(i, n int) {
	if i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].Calls = n
	l.mu.Unlock()
}

func (l *spanLog) noteOwl(d time.Duration) {
	if !l.on.Load() {
		return
	}
	l.mu.Lock()
	if l.root >= 0 {
		l.spans[l.root].OwlCalls++
		l.spans[l.root].OwlNs += int64(d)
	}
	l.mu.Unlock()
}

// timedReasoner is the reasoner layer as the engine sees it, timed.
type timedReasoner struct {
	inner *owl.Reasoner
	log   *spanLog
}

func (r timedReasoner) IsSubClassOf(sub, super rdf.Term) bool {
	t := time.Now()
	ok := r.inner.IsSubClassOf(sub, super)
	r.log.noteOwl(time.Since(t))
	return ok
}

func (r timedReasoner) IsSubPropertyOf(sub, super rdf.Term) bool {
	t := time.Now()
	ok := r.inner.IsSubPropertyOf(sub, super)
	r.log.noteOwl(time.Since(t))
	return ok
}

func (r timedReasoner) TypesOf(ind rdf.Term) []rdf.Term {
	t := time.Now()
	ts := r.inner.TypesOf(ind)
	r.log.noteOwl(time.Since(t))
	return ts
}

// spanFS is the WAL's file system with each write and fsync recorded. I/O
// on log segments nests under the current request; snapshot files and
// directory syncs belong to the background snapshot loop and get spans of
// their own.
type spanFS struct {
	wal.FS
	log *spanLog
}

func (f spanFS) OpenFile(name string, flag int, perm fs.FileMode) (wal.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return spanFile{File: inner, log: f.log, segment: strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

type spanFile struct {
	wal.File
	log     *spanLog
	segment bool
}

func (f spanFile) start(name string) int {
	if f.segment {
		return f.log.startInjected(name)
	}
	return f.log.startDetached("wal.background")
}

func (f spanFile) Write(p []byte) (int, error) {
	i := f.start("wal.write")
	n, err := f.File.Write(p)
	f.log.addBytes(i, n)
	f.log.end(i)
	return n, err
}

func (f spanFile) Sync() error {
	i := f.start("wal.sync")
	err := f.File.Sync()
	f.log.end(i)
	return err
}

// inproc is the server stack built in process the way gsacs-server builds
// it with -data-dir and -fsync always, plus a twin engine over the same
// store that the benchmark calls directly.
type inproc struct {
	log       *spanLog
	st        *store.Store
	engine    *gsacs.Engine
	server    http.Handler
	bare      http.Handler // the same stack without observability
	twin      *gsacs.Engine
	repo      *wal.Repository
	setup     [3]time.Duration // datagen, WAL seed, reasoner materialization
	writerIRI rdf.IRI
}

func buildInproc(dir string) (*inproc, error) {
	p := &inproc{log: newSpanLog()}
	t := time.Now()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: scenarioSeed, Sites: scenarioSites})
	p.setup[0] = time.Since(t)
	p.writerIRI = rdf.IRI(seconto.NS + writerRole)
	for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
		sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
			ID:      rdf.IRI(seconto.NS + "WriterRole" + action.LocalName()),
			Subject: p.writerIRI, Action: action, Resource: grdf.Feature, Permit: true,
		})
	}

	reg := obs.NewRegistry()
	logger := obs.NewLogger(io.Discard, slog.LevelInfo)
	p.st = store.New().Instrument(reg)
	p.engine = gsacs.New(sc.Policies, p.st, gsacs.Options{CacheSize: 32, Metrics: reg})
	p.st.SetCommitBatching(128, 500*time.Microsecond)

	t = time.Now()
	repo, err := wal.Open(p.st, wal.Options{
		Dir: dir, FS: spanFS{FS: wal.OSFS(), log: p.log}, Fsync: wal.FsyncAlways,
		FsyncInterval: 50 * time.Millisecond, SnapshotEvery: 10000, Metrics: reg, Logger: logger,
	})
	if err != nil {
		return nil, err
	}
	p.repo = repo
	p.st.AddAll(sc.Merged.Triples())
	p.setup[1] = time.Since(t)

	t = time.Now()
	r := owl.NewReasoner().Instrument(reg)
	r.AddGraph(grdf.Ontology())
	r.AddGraph(seconto.Ontology())
	r.AddAll(p.st.Triples())
	p.setup[2] = time.Since(t)
	p.engine.SetReasoner(timedReasoner{inner: r, log: p.log})
	p.engine.EnableAudit(256)
	p.engine.SetAuditPersist(repo.AppendAudit)

	onto := gsacs.NewOntoRepository()
	onto.Register("grdf", grdf.Ontology())
	onto.Register("seconto", seconto.Ontology())
	slo := obs.NewSLOEngine(obs.SLOConfig{LatencyTarget: 100 * time.Millisecond, AvailabilityTarget: 0.999})
	p.server = gsacs.NewServer(p.engine, onto,
		gsacs.WithMetrics(reg), gsacs.WithLogger(logger),
		gsacs.WithQueryTimeout(30*time.Second), gsacs.WithMaxBodyBytes(1<<20),
		gsacs.WithTracer(obs.NewTracer(256).Instrument(reg)), gsacs.WithSLO(slo),
		gsacs.WithWorkload(workload.New(workload.Config{Capacity: 256, Registry: reg, Logger: logger})),
		gsacs.WithAdmission(gsacs.AdmissionConfig{
			Controller: admission.NewController(admission.Config{
				MaxQueue: 128, QueueDeadline: 100 * time.Millisecond,
				LatencyTarget: 50 * time.Millisecond,
				Signal:        admission.DefaultSignal(slo, reg), Metrics: reg,
			}),
			PriorityHeader: "X-Priority",
		}),
		gsacs.WithWALStatus(func() any { return repo.WALStatus() }))

	bareEngine := gsacs.New(sc.Policies, p.st, gsacs.Options{Reasoner: r, CacheSize: 32})
	bareEngine.EnableAudit(256)
	bareEngine.SetAuditPersist(repo.AppendAudit)
	p.bare = gsacs.NewServer(bareEngine, onto,
		gsacs.WithQueryTimeout(30*time.Second), gsacs.WithMaxBodyBytes(1<<20))

	p.twin = gsacs.New(sc.Policies, p.st, gsacs.Options{Reasoner: r, CacheSize: 32})
	return p, nil
}

// serve runs one request through h in process.
func serve(h http.Handler, r request) (int, []byte) {
	req := httptest.NewRequest(r.method(), r.path, bytes.NewReader(r.body))
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

var roleOf = [3]rdf.IRI{datagen.RoleHazmat, datagen.RoleEmergency, datagen.RoleMainRepair}
var queryOf = [2]string{hazmatQuery, erQuery}

// replayed is one request of the traced pass.
type replayed struct {
	kind   kind
	http   int // root span through Server.ServeHTTP, -1 if not sent that way
	engine int // root span of the twin-engine decomposition, -1 if none
	miss   bool
	evalNs int64
	rows   [2]int64 // rows scanned, rows out
	allocs [2]uint64
	views  int // triples in a rebuilt view
}

// tracer drives the traced pass.
type tracer struct {
	p      *inproc
	ref    *reference
	t      *tally
	out    []replayed
	writes int
	ctx    context.Context
	// Every other request through the server runs with span recording
	// off; plain holds those requests' latencies (µs) by kind, the base
	// for the tracing overhead.
	served int
	plain  [numKinds][]float64
	// closing traces every request of the closing check.
	closing bool
}

// serveHTTP sends r through the shipped server, as a root span or, every
// other time, untraced.
func (tr *tracer) serveHTTP(r request, rp *replayed) (int, []byte) {
	l := tr.p.log
	tr.served++
	if tr.served%2 == 0 && !tr.closing {
		l.on.Store(false)
		t := time.Now()
		status, body := serve(tr.p.server, r)
		tr.plain[r.kind] = append(tr.plain[r.kind], float64(time.Since(t))/1e3)
		l.on.Store(true)
		return status, body
	}
	rp.http = l.startRoot("http", r.kind.String())
	status, body := serve(tr.p.server, r)
	l.end(rp.http)
	return status, body
}

// step replays one request: reads through the server and then, decomposed,
// through the twin engine; writes alternately through the server and
// through the twin's MutateCtx.
func (tr *tracer) step(r request) {
	l := tr.p.log
	l.req++
	rp := replayed{kind: r.kind, http: -1, engine: -1}
	if r.kind == kindMutate {
		tr.writes++
		if tr.writes%2 == 1 {
			status, body := tr.serveHTTP(r, &rp)
			tr.t.note(tr.ref.check(r, status, body))
		} else {
			rp.engine = l.startRoot("gsacs.mutate", r.kind.String())
			_, err := tr.p.twin.MutateCtx(tr.ctx, tr.p.writerIRI, mutationOps(r))
			l.end(rp.engine)
			reason := ""
			if err != nil {
				reason = fmt.Sprintf("twin mutate: %v", err)
			}
			tr.t.note(reason)
		}
		tr.out = append(tr.out, rp)
		return
	}
	status, body := tr.serveHTTP(r, &rp)
	tr.t.note(tr.ref.check(r, status, body))

	role := roleOf[r.kind]
	rp.engine = l.startRoot("engine", r.kind.String())
	vs := l.start("gsacs.view", rp.engine)
	misses := tr.p.twin.Cache().Snapshot().Misses
	view := tr.p.twin.ViewCtx(tr.ctx, role, seconto.ActionView)
	l.end(vs)
	if tr.p.twin.Cache().Snapshot().Misses != misses {
		rp.miss = true
		rp.views = view.Len()
		tr.rebuild(rp.engine, role)
	}
	if r.kind == kindView {
		es := l.start("encode", rp.engine)
		var buf bytes.Buffer
		err := turtle.Write(&buf, view.Graph(), nil)
		l.end(es)
		reason := ""
		if err != nil || !bytes.Equal(buf.Bytes(), tr.ref.view) {
			reason = "twin view differs from the reference"
		}
		l.end(rp.engine)
		tr.t.note(reason)
		tr.out = append(tr.out, rp)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ss := l.start("sparql.setup", rp.engine)
	eng := sparql.NewEngine(view)
	grdf.RegisterSpatialFuncs(eng, view)
	eng.SetStatsSink(func(st sparql.EvalStats) { rp.rows = [2]int64{st.RowsScanned, st.RowsOut} })
	l.end(ss)
	ps := l.start("sparql.parse", rp.engine)
	q, err := sparql.ParseQuery(queryOf[r.kind], nil)
	l.end(ps)
	var res *sparql.Result
	if err == nil {
		es := l.start("sparql.eval", rp.engine)
		t := time.Now()
		res, err = eng.EvalCtx(tr.ctx, q)
		rp.evalNs = int64(time.Since(t))
		l.end(es)
	}
	runtime.ReadMemStats(&m1)
	l.end(rp.engine)
	rp.allocs = [2]uint64{m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc}
	want := tr.ref.hazmatRows
	if r.kind == kindER {
		want = tr.ref.erRows
	}
	reason := ""
	switch {
	case err != nil:
		reason = fmt.Sprintf("twin %s: %v", r.kind, err)
	case len(res.Bindings) != want:
		reason = fmt.Sprintf("twin %s: %d rows, want %d", r.kind, len(res.Bindings), want)
	}
	tr.t.note(reason)
	tr.out = append(tr.out, rp)
}

// rebuild redoes a view miss in three timed passes over the governed
// resources: every decision, then the filter of each allowed resource, then
// the copy into a fresh store, one commit per resource as the engine does.
func (tr *tracer) rebuild(root int, role rdf.IRI) {
	l := tr.p.log
	rb := l.start("gsacs.rebuild", root)
	gov := governed(tr.p.st)
	accs := make([]gsacs.Access, len(gov))
	ds := l.start("gsacs.decide", rb)
	for i, res := range gov {
		accs[i], _ = tr.p.twin.DecideCtx(tr.ctx, role, seconto.ActionView, res) // a live context never refuses
	}
	l.end(ds)
	l.setCalls(ds, len(gov))
	fs := l.start("gsacs.filter", rb)
	var parts [][]rdf.Triple
	for i, res := range gov {
		if accs[i].Allowed {
			parts = append(parts, tr.p.twin.FilterResource(res, accs[i]))
		}
	}
	l.end(fs)
	l.setCalls(fs, len(parts))
	cs := l.start("store.copy", rb)
	view := store.New()
	for _, ts := range parts {
		view.AddAll(ts)
	}
	l.end(cs)
	l.end(rb)
}

// governed lists every typed subject, sorted, as the engine's view build does.
func governed(st *store.Store) []rdf.Term {
	seen := map[string]bool{}
	var out []rdf.Term
	st.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		if k := t.Subject.String(); !seen[k] {
			seen[k] = true
			out = append(out, t.Subject)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// mutationOps turns a generated write into the engine's ops.
func mutationOps(r request) []gsacs.MutationOp {
	ops := make([]gsacs.MutationOp, len(r.renames))
	for i, rn := range r.renames {
		iri := rdf.IRI(rn.iri)
		ops[i] = gsacs.MutationOp{Kind: store.OpReplace, Triples: []rdf.Triple{
			rdf.T(iri, datagen.HasSiteName, rdf.NewString(rn.old)),
			rdf.T(iri, datagen.HasSiteName, rdf.NewString(rn.new)),
		}}
	}
	return ops
}

// tracedRun replays the workload in process. An untraced pass alternates
// blocks of requests between the shipped server and one without
// observability, for the CPU cost of observability and the Go runtime
// figures; the traced pass then records spans around every layer call, with
// every other request through the server left untraced for the tracing
// overhead.
func tracedRun(ctx context.Context, sp spec, seed int64, d time.Duration, work string) (*result, error) {
	ref, err := newReference()
	if err != nil {
		return nil, err
	}
	runDir, err := makeRunDir(work, "trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	p, err := buildInproc(filepath.Join(runDir, "data"))
	if err != nil {
		return nil, err
	}
	defer p.repo.Close()

	t := &tally{}
	before := p.st.Len()
	lanes := newLanes(sp, seed, ref.book)
	next := laneCycle(lanes)
	if sp.writeEvery != 1 {
		for k := kindHazmat; k <= kindView; k++ {
			r := request{kind: k, path: readPaths[k]}
			for _, h := range []http.Handler{p.server, p.bare} {
				status, body := serve(h, r)
				t.note(ref.check(r, status, body))
			}
		}
	}
	for i := 0; i < 20; i++ {
		r := next()
		status, body := serve(p.server, r)
		t.note(ref.check(r, status, body))
	}

	// Untraced pass: blocks of 16 requests alternate between the two stacks.
	var (
		cpu      [2]time.Duration
		count    [2]int
		gcCPU0   = readCPUClasses()
		alloc0   = totalAlloc()
		untraced int
	)
	stacks := [2]http.Handler{p.server, p.bare}
	end := time.Now().Add(d * 2 / 5)
	for side := 0; time.Now().Before(end) && ctx.Err() == nil; side = 1 - side {
		c0 := processCPU()
		for i := 0; i < 16; i++ {
			r := next()
			status, body := serve(stacks[side], r)
			t.note(ref.check(r, status, body))
		}
		cpu[side] += processCPU() - c0
		count[side] += 16
		untraced += 16
	}
	gcCPU1 := readCPUClasses()
	alloc1 := totalAlloc()

	// Traced pass.
	tr := &tracer{p: p, ref: ref, t: t, ctx: ctx}
	audit0 := p.engine.AuditStats().Recorded
	gc0 := p.st.GroupCommitStats()
	twin0 := p.twin.Cache().Snapshot()
	p.log.on.Store(true)
	end = time.Now().Add(d * 3 / 5)
	for time.Now().Before(end) && ctx.Err() == nil {
		tr.step(next())
	}
	replay := len(tr.out)
	twin1 := p.twin.Cache().Snapshot()
	// Closing check, traced as well so that every layer is measured on
	// every workload: a rename through each entry point, then each read
	// twice (a rebuild, then a cache hit).
	tr.writes, tr.closing = 0, true
	tr.step(lanes[0].write())
	tr.step(lanes[1].write())
	for round := 0; round < 2; round++ {
		for k := kindHazmat; k <= kindView; k++ {
			tr.step(request{kind: k, path: readPaths[k]})
		}
	}
	p.log.on.Store(false)
	audit1 := p.engine.AuditStats().Recorded
	gc1 := p.st.GroupCommitStats()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	status, body := serve(p.server, request{kind: kindER, path: readPaths[kindER]})
	if status != 200 {
		t.note(fmt.Sprintf("name check: status %d", status))
	} else {
		t.note(ref.checkNames(body))
	}
	if after := p.st.Len(); after != before {
		t.note(fmt.Sprintf("triple count drifted from %d to %d", before, after))
	}
	status, body = serve(p.server, request{path: "/healthz"})
	if status != 200 {
		return nil, fmt.Errorf("/healthz: status %d", status)
	}
	var health struct {
		Admission admission.Status `json:"admission"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		return nil, fmt.Errorf("/healthz: %w", err)
	}

	spans := p.log.spans
	self := selfTimes(spans)
	gaps, worst := ledgerGaps(spans, self)
	if gaps > 0 {
		t.note(fmt.Sprintf("%d requests' layer times miss their measured time by more than %.0f%% (worst %.2f%%)",
			gaps, ledgerTolerance*100, worst*100))
	}
	spanFile := filepath.Join(work, fmt.Sprintf("spans-%s-%d.jsonl", sp.name, seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}

	res := &result{}
	a := newAgg(spans, tr.out)
	httpReqs := float64(a.count(func(r replayed) bool { return r.http >= 0 }))
	res.add("gsacs.http.query_us", median(a.httpDur(kindHazmat, kindER)), "us")
	res.add("gsacs.http.view_us", median(a.httpDur(kindView)), "us")
	res.add("gsacs.http.mutate_us", median(a.httpDur(kindMutate)), "us")
	res.add("gsacs.http.self_share", a.httpSelfShare(), "ratio")
	res.add("gsacs.view.hit_ratio", ratio(float64(twin1.Hits-twin0.Hits), float64(twin1.Hits-twin0.Hits+twin1.Misses-twin0.Misses)), "ratio")
	res.add("gsacs.view.miss_us", median(a.viewDur(true)), "us")
	res.add("gsacs.view.hit_us", median(a.viewDur(false)), "us")
	res.add("gsacs.view.triples_per_miss", a.meanViews(), "count")
	res.add("gsacs.view.copy_share", ratio(a.total("store.copy"), a.total("gsacs.rebuild")), "ratio")
	res.add("gsacs.decide.us", ratio(a.total("gsacs.decide"), float64(a.calls("gsacs.decide"))), "us")
	res.add("gsacs.decide.calls_per_miss", ratio(float64(a.calls("gsacs.decide")), float64(a.n("gsacs.rebuild"))), "count")
	res.add("gsacs.filter.us", ratio(a.total("gsacs.filter"), float64(a.calls("gsacs.filter"))), "us")
	res.add("gsacs.mutate.us", median(a.durOf("gsacs.mutate")), "us")
	res.add("gsacs.audit.entries_per_req", ratio(float64(audit1-audit0), float64(tr.served)), "count")
	var admitted uint64
	for _, c := range health.Admission.Classes {
		admitted += c.Admitted
	}
	res.add("admission.admitted", float64(admitted), "count")
	res.add("admission.shed", float64(health.Admission.TotalShed), "count")
	res.add("sparql.parse_us", median(a.durOf("sparql.parse")), "us")
	res.add("sparql.setup_us", median(a.durOf("sparql.setup")), "us")
	res.add("sparql.eval_us.hazmat", median(a.evalUs(kindHazmat)), "us")
	res.add("sparql.eval_us.er", median(a.evalUs(kindER)), "us")
	scanned, out, allocs, bytesAlloc, queries := a.queryTotals()
	res.add("sparql.rows_scanned_per_out", ratio(scanned, out), "ratio")
	res.add("sparql.allocs_per_query", ratio(allocs, queries), "count")
	res.add("sparql.alloc_bytes_per_query", ratio(bytesAlloc, queries), "B")
	owlCalls, owlUs := a.owl()
	res.add("owl.calls_per_req", ratio(owlCalls, httpReqs), "count")
	res.add("owl.us_per_req", ratio(owlUs, httpReqs), "us")
	res.add("owl.materialize_s", p.setup[2].Seconds(), "s")
	commits := float64(gc1.Groups - gc0.Groups)
	res.add("store.commits", commits, "count")
	res.add("store.ops_per_commit", ratio(float64(gc1.Ops-gc0.Ops), commits), "ratio")
	rb, rn, wb, ws, wn := a.walPerRequest()
	res.add("wal.bytes_per_read_req", ratio(rb, rn), "B")
	res.add("wal.bytes_per_write_req", ratio(wb, wn), "B")
	res.add("wal.fsyncs_per_write_req", ratio(ws, wn), "count")
	res.add("wal.fsync_us", median(a.durOf("wal.sync")), "us")
	res.add("wal.seed_s", p.setup[1].Seconds(), "s")
	res.add("obs.overhead_ratio", ratio(ratio(float64(cpu[0]), float64(count[0])), ratio(float64(cpu[1]), float64(count[1]))), "ratio")
	res.add("go.gc_cpu_fraction", ratio(gcCPU1[0]-gcCPU0[0], gcCPU1[1]-gcCPU0[1]), "ratio")
	res.add("go.alloc_bytes_per_req", ratio(float64(alloc1-alloc0), float64(untraced)), "B")
	res.add("datagen.scenario_s", p.setup[0].Seconds(), "s")
	traced, plain := a.httpDur(kindHazmat, kindER, kindView), append(append(tr.plain[kindHazmat], tr.plain[kindER]...), tr.plain[kindView]...)
	if sp.writeEvery == 1 {
		traced, plain = a.httpDur(kindMutate), tr.plain[kindMutate]
	}
	res.add("trace.overhead_us", median(traced)-median(plain), "us")
	res.add("trace.ledger_max_gap", worst, "ratio")
	res.add("trace.spans", float64(len(spans)), "count")
	for _, name := range spanNames {
		res.add("self_us."+name, ratio(a.selfTotal(self, name), float64(len(tr.out))), "us")
	}

	res.addMeta("replayed_requests", replay)
	res.addMeta("untraced_requests", untraced)
	res.addMeta("ledger_tolerance", ledgerTolerance)
	res.addMeta("span_file", spanFile)
	res.attempted, res.failed = t.attempted, t.failed
	res.correct = t.failed == 0
	return res, nil
}

// spanNames are the layers of the ledger; self_us.<name> is each one's self
// time per replayed request.
var spanNames = []string{"http", "engine", "gsacs.view", "gsacs.rebuild", "gsacs.decide",
	"gsacs.filter", "store.copy", "sparql.setup", "sparql.parse", "sparql.eval", "encode",
	"gsacs.mutate", "wal.write", "wal.sync", "owl"}

// laneCycle interleaves the two lanes' sequences, as the open loop does.
func laneCycle(lanes [2]*lane) func() request {
	i := 0
	return func() request {
		r := lanes[i%2].nextRequest()
		i++
		return r
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes gives each span's duration minus the part its children cover,
// and minus the reasoner time recorded on it.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var covered, reach int64
		reach = s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered - s.OwlNs
	}
	return self
}

// ledgerGaps checks, for every root, that the self times of its tree plus
// its reasoner time sum to its measured duration.
func ledgerGaps(spans []span, self []int64) (int, float64) {
	rootOf := make([]int, len(spans))
	sum := map[int]int64{}
	for i, s := range spans {
		if s.Parent < 0 {
			rootOf[i] = i
			sum[i] += s.OwlNs
		} else {
			rootOf[i] = rootOf[s.Parent]
		}
		sum[rootOf[i]] += self[i]
	}
	gaps, worst := 0, 0.0
	for root, total := range sum {
		d := spans[root].End - spans[root].Start
		if d <= 0 {
			continue
		}
		g := float64(total-d) / float64(d)
		if g < 0 {
			g = -g
		}
		if g > worst {
			worst = g
		}
		if g > ledgerTolerance {
			gaps++
		}
	}
	return gaps, worst
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// processCPU is this process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// readCPUClasses returns the Go runtime's GC CPU and total CPU seconds.
func readCPUClasses() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// agg answers the per-layer questions from the spans of the traced pass.
type agg struct {
	spans []span
	out   []replayed
}

func newAgg(spans []span, out []replayed) *agg { return &agg{spans: spans, out: out} }

func (a *agg) dur(i int) float64 { return float64(a.spans[i].End-a.spans[i].Start) / 1e3 }

func (a *agg) count(f func(replayed) bool) int {
	n := 0
	for _, r := range a.out {
		if f(r) {
			n++
		}
	}
	return n
}

func (a *agg) httpDur(kinds ...kind) []float64 {
	var out []float64
	for _, r := range a.out {
		for _, k := range kinds {
			if r.kind == k && r.http >= 0 {
				out = append(out, a.dur(r.http))
			}
		}
	}
	return out
}

// httpSelfShare is the share of read time through the server spent outside
// the view and SPARQL layers, as the twin engine measured them.
func (a *agg) httpSelfShare() float64 {
	var total, inner float64
	for _, r := range a.out {
		if !r.kind.isRead() || r.http < 0 || r.engine < 0 {
			continue
		}
		total += a.dur(r.http)
		for i := r.engine + 1; i < len(a.spans) && a.spans[i].Parent >= 0; i++ {
			switch a.spans[i].Name {
			case "gsacs.view", "sparql.setup", "sparql.parse", "sparql.eval":
				if a.spans[i].Parent == r.engine {
					inner += a.dur(i)
				}
			}
		}
	}
	return ratio(total-inner, total)
}

func (a *agg) viewDur(miss bool) []float64 {
	var out []float64
	for _, r := range a.out {
		if r.engine < 0 || r.miss != miss || !r.kind.isRead() {
			continue
		}
		for i := r.engine + 1; i < len(a.spans) && a.spans[i].Parent >= 0; i++ {
			if a.spans[i].Name == "gsacs.view" {
				out = append(out, a.dur(i))
				break
			}
		}
	}
	return out
}

func (a *agg) meanViews() float64 {
	var sum, n float64
	for _, r := range a.out {
		if r.miss {
			sum += float64(r.views)
			n++
		}
	}
	return ratio(sum, n)
}

func (a *agg) durOf(name string) []float64 {
	var out []float64
	for i, s := range a.spans {
		if s.Name == name {
			out = append(out, a.dur(i))
		}
	}
	return out
}

func (a *agg) total(name string) float64 {
	var t float64
	for _, d := range a.durOf(name) {
		t += d
	}
	return t
}

func (a *agg) n(name string) int { return len(a.durOf(name)) }

func (a *agg) calls(name string) int {
	n := 0
	for _, s := range a.spans {
		if s.Name == name {
			n += s.Calls
		}
	}
	return n
}

func (a *agg) evalUs(k kind) []float64 {
	var out []float64
	for _, r := range a.out {
		if r.kind == k && r.engine >= 0 {
			out = append(out, float64(r.evalNs)/1e3)
		}
	}
	return out
}

func (a *agg) queryTotals() (scanned, out, allocs, bytesAlloc, queries float64) {
	for _, r := range a.out {
		if (r.kind == kindHazmat || r.kind == kindER) && r.engine >= 0 {
			scanned += float64(r.rows[0])
			out += float64(r.rows[1])
			allocs += float64(r.allocs[0])
			bytesAlloc += float64(r.allocs[1])
			queries++
		}
	}
	return
}

func (a *agg) owl() (calls, us float64) {
	for _, r := range a.out {
		if r.http >= 0 {
			calls += float64(a.spans[r.http].OwlCalls)
			us += float64(a.spans[r.http].OwlNs) / 1e3
		}
	}
	return
}

// walPerRequest totals WAL bytes under read requests through the server,
// and WAL bytes and fsyncs under writes through either entry point.
func (a *agg) walPerRequest() (readBytes, reads, writeBytes, writeSyncs, writes float64) {
	isRoot := map[int]kind{}
	for _, r := range a.out {
		for _, root := range []int{r.http, r.engine} {
			if root >= 0 && (r.kind == kindMutate || root == r.http) {
				isRoot[root] = r.kind
			}
		}
		switch {
		case r.kind == kindMutate && (r.http >= 0 || r.engine >= 0):
			writes++
		case r.kind != kindMutate && r.http >= 0:
			reads++
		}
	}
	for _, s := range a.spans {
		k, ok := isRoot[s.Parent]
		if !ok {
			continue
		}
		switch {
		case s.Name == "wal.write" && k == kindMutate:
			writeBytes += float64(s.Bytes)
		case s.Name == "wal.write":
			readBytes += float64(s.Bytes)
		case s.Name == "wal.sync" && k == kindMutate:
			writeSyncs++
		}
	}
	return
}

func (a *agg) selfTotal(self []int64, name string) float64 {
	var t float64
	for i, s := range a.spans {
		if s.Name == name {
			t += float64(self[i]) / 1e3
		}
	}
	if name == "owl" {
		for _, s := range a.spans {
			t += float64(s.OwlNs) / 1e3
		}
	}
	return t
}
