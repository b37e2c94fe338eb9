package gsacs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/wal"
)

// The differential oracle for buildView and the decision procedure. The
// references below are the per-resource build and the per-rule decision
// procedure the engine used before views were built in one commit: for each
// resource a fresh rule scan with fresh type and geometry reads, one audit
// append, FilterResource, and one AddAll into a store with its own
// dictionary. For seeded scenarios, random policy sets and random write
// histories, the engine's decisions and views must equal the reference's,
// and its audit ring, journal and decision counters must match entry for
// entry.

// referenceView is the per-resource view build, kept here as the oracle.
func referenceView(e *Engine, subject, action rdf.IRI) *store.Store {
	view := store.New()
	for _, res := range referenceGoverned(e.Data()) {
		acc := referenceDecide(e, subject, action, res)
		e.recordAudit(AuditEntry{
			Subject: subject, Action: action, Resource: res.String(),
			Allowed: acc.Allowed, Full: acc.Full,
			Policies: append([]rdf.IRI(nil), acc.Matched...),
		})
		if acc.Allowed {
			e.mAllowed.Inc()
		} else {
			e.mDenied.Inc()
		}
		if !acc.Allowed {
			continue
		}
		view.AddAll(e.FilterResource(res, acc))
	}
	return view
}

// referenceDecide is the per-rule decision procedure: every rule of the
// subject is scanned, and every rule re-reads the reasoner, the resource's
// types and its geometry.
func referenceDecide(e *Engine, subject, action rdf.IRI, resource rdf.Term) Access {
	matches := func(policyRes rdf.IRI) bool {
		if policyRes.Equal(resource) {
			return true
		}
		reasoner := e.Reasoner()
		for _, ty := range reasoner.TypesOf(resource) {
			if reasoner.IsSubClassOf(ty, policyRes) {
				return true
			}
		}
		for _, ty := range e.data.Objects(resource, rdf.RDFType) {
			if reasoner.IsSubClassOf(ty, policyRes) {
				return true
			}
		}
		return false
	}
	within := func(scope geom.Envelope) bool {
		g, _, err := grdf.GeometryOf(e.data, resource)
		return err == nil && geom.Within(g, scope)
	}
	var applicable []seconto.Rule
	for _, r := range e.policies.ForSubject(subject) {
		if r.Action != action || !matches(r.Resource) {
			continue
		}
		if r.SpatialScope != nil && !within(*r.SpatialScope) {
			continue
		}
		applicable = append(applicable, r)
	}
	if len(applicable) == 0 {
		return Access{}
	}
	sort.SliceStable(applicable, func(i, j int) bool {
		if applicable[i].Priority != applicable[j].Priority {
			return applicable[i].Priority < applicable[j].Priority
		}
		return applicable[i].Permit && !applicable[j].Permit
	})
	acc := Access{Properties: map[rdf.IRI]bool{}, denied: map[rdf.IRI]bool{}}
	for _, r := range applicable {
		acc.Matched = append(acc.Matched, r.ID)
		switch {
		case r.Permit && len(r.Properties) == 0:
			acc.Full = true
			acc.denied = map[rdf.IRI]bool{}
		case r.Permit:
			for _, p := range r.Properties {
				acc.Properties[p] = true
				delete(acc.denied, p)
			}
		case !r.Permit && len(r.Properties) == 0:
			acc.Full = false
			acc.Properties = map[rdf.IRI]bool{}
			acc.denied = map[rdf.IRI]bool{}
			acc.Matched = append(acc.Matched[:0], r.ID)
		default:
			for _, p := range r.Properties {
				delete(acc.Properties, p)
				acc.denied[p] = true
			}
		}
	}
	acc.Allowed = acc.Full || len(acc.Properties) > 0
	return acc
}

// referenceGoverned lists every typed subject, deduplicated and sorted by
// its string form.
func referenceGoverned(st *store.Store) []rdf.Term {
	seen := map[string]struct{}{}
	var out []rdf.Term
	st.ForEachMatch(nil, rdf.RDFType, nil, func(t rdf.Triple) bool {
		k := t.Subject.String()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, t.Subject)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// journal captures persisted audit blobs in call order.
type journal struct {
	mu    sync.Mutex
	blobs [][]byte
	calls int
}

func (j *journal) persist(data ...[]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.calls++
	for _, d := range data {
		j.blobs = append(j.blobs, append([]byte(nil), d...))
	}
	return nil
}

var (
	oracleRoles = []rdf.IRI{datagen.RoleHazmat, datagen.RoleEmergency, datagen.RoleMainRepair,
		seconto.NS + "Auditor"}
	oracleWriter = rdf.IRI(seconto.NS + "OracleWriter")
	oracleProps  = []rdf.IRI{
		grdf.NS + "boundedBy", datagen.HasSiteName, datagen.HasChemicalInfo,
		rdf.AppNS + "chemical", datagen.HasChemName, datagen.HasChemCode,
		datagen.HasContactName, datagen.HasStreamName, datagen.FlowsInto,
		rdf.AppNS + "oracleNote",
	}
)

// randomPolicies returns the scenario's policies plus random rules over
// the oracle roles — class and individual resources, property grants and
// denies, spatial scopes and priorities — and full write access for the
// oracle writer.
func randomPolicies(rng *rand.Rand, sc *datagen.Scenario) *seconto.Set {
	set := &seconto.Set{Rules: append([]seconto.Rule(nil), sc.Policies.Rules...)}
	resources := []rdf.IRI{grdf.Feature, datagen.ChemSite, datagen.HydroStream,
		datagen.ChemInfo, datagen.ChemRecord, datagen.WeatherStation}
	for _, s := range sc.Chemical.Sites[:2] {
		resources = append(resources, s.IRI)
	}
	for i := 0; i < 4+rng.Intn(8); i++ {
		r := seconto.Rule{
			ID:       rdf.IRI(fmt.Sprintf("%sOracle%d", seconto.NS, i)),
			Subject:  oracleRoles[rng.Intn(len(oracleRoles))],
			Action:   seconto.ActionView,
			Resource: resources[rng.Intn(len(resources))],
			Permit:   rng.Intn(10) < 7,
			Priority: rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			for _, j := range rng.Perm(len(oracleProps))[:1+rng.Intn(3)] {
				r.Properties = append(r.Properties, oracleProps[j])
			}
		}
		if rng.Intn(4) == 0 {
			b := sc.Chemical.Sites[rng.Intn(len(sc.Chemical.Sites))].Bounds
			pad := rng.Float64() * 0.05
			r.SpatialScope = &geom.Envelope{MinX: b.MinX - pad, MinY: b.MinY - pad,
				MaxX: b.MaxX + pad, MaxY: b.MaxY + pad}
		}
		set.Rules = append(set.Rules, r)
	}
	for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
		set.Rules = append(set.Rules, seconto.Rule{
			ID:      rdf.IRI(seconto.NS + "OracleWriter" + action.LocalName()),
			Subject: oracleWriter, Action: action, Resource: grdf.Feature, Permit: true,
		})
	}
	return set
}

// randomMutation applies one random write batch through the writer engine:
// site renames, inserted and deleted properties, retyped resources.
// Refused or no-op batches are fine; the oracle only needs the data to move.
func randomMutation(rng *rand.Rand, w *Engine, sc *datagen.Scenario) {
	data := w.Data()
	sites := sc.Chemical.Sites
	var ops []MutationOp
	for i := 0; i < 1+rng.Intn(3); i++ {
		site := sites[rng.Intn(len(sites))].IRI
		switch rng.Intn(4) {
		case 0:
			if old, ok := data.FirstObject(site, datagen.HasSiteName); ok {
				ops = append(ops, MutationOp{Kind: store.OpReplace, Triples: []rdf.Triple{
					rdf.T(site, datagen.HasSiteName, old),
					rdf.T(site, datagen.HasSiteName, rdf.NewString(fmt.Sprintf("renamed %d", rng.Intn(1000)))),
				}})
			}
		case 1:
			ops = append(ops, MutationOp{Kind: store.OpAdd, Triples: []rdf.Triple{
				rdf.T(site, oracleProps[rng.Intn(len(oracleProps))], rdf.NewString(fmt.Sprintf("v%d", rng.Intn(50)))),
			}})
		case 2:
			var victims []rdf.Triple
			for _, tr := range data.DescribeResource(site) {
				if tr.Predicate != rdf.RDFType {
					victims = append(victims, tr)
				}
			}
			if len(victims) > 0 {
				ops = append(ops, MutationOp{Kind: store.OpRemove, Triples: []rdf.Triple{victims[rng.Intn(len(victims))]}})
			}
		case 3:
			classes := []rdf.IRI{datagen.HydroStream, datagen.WeatherStation, datagen.ChemSite}
			ops = append(ops, MutationOp{Kind: store.OpAdd, Triples: []rdf.Triple{
				rdf.T(site, rdf.RDFType, classes[rng.Intn(len(classes))]),
			}})
		}
	}
	if len(ops) > 0 {
		_, _ = w.MutateCtx(context.Background(), oracleWriter, ops)
	}
}

func decisionCounts(reg *obs.Registry) [2]float64 {
	return [2]float64{
		reg.Counter("grdf_decisions_total", "", "outcome", "allowed").Value(),
		reg.Counter("grdf_decisions_total", "", "outcome", "denied").Value(),
	}
}

// runOracle drives one scenario: the engine under test and the reference
// engine share the data; a third engine, unaudited, makes the writes.
// persist journals the tested engine's audit trail; the returned journal
// holds the reference's.
func runOracle(t *testing.T, seed int64, data *store.Store, sc *datagen.Scenario, owl bool, persist func(...[]byte) error) *journal {
	rng := rand.New(rand.NewSource(seed))
	policies := randomPolicies(rng, sc)
	var reasoner Reasoner
	if owl {
		reasoner = NewOWLReasoner(data, grdf.Ontology(), seconto.Ontology())
	}
	regNew, regRef := obs.NewRegistry(), obs.NewRegistry()
	eNew := New(policies, data, Options{Reasoner: reasoner, Metrics: regNew})
	eRef := New(policies, data, Options{Reasoner: reasoner, Metrics: regRef})
	writer := New(policies, data, Options{Reasoner: reasoner})
	ref := &journal{}
	eNew.EnableAudit(1 << 16)
	eRef.EnableAudit(1 << 16)
	eNew.SetAuditPersist(persist)
	eRef.SetAuditPersist(ref.persist)

	gen0, seen := data.Generation(), 0
	for round := 0; round < 6; round++ {
		if round > 0 {
			randomMutation(rng, writer, sc)
		}
		for _, role := range oracleRoles {
			got := eNew.View(role, seconto.ActionView)
			want := referenceView(eRef, role, seconto.ActionView)
			if got.String() != want.String() {
				t.Fatalf("seed %d round %d %s: view differs from the reference (%d vs %d triples)",
					seed, round, role.LocalName(), got.Len(), want.Len())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("seed %d round %d %s: %v", seed, round, role.LocalName(), err)
			}
			seen += got.Len()
		}
		// Decide itself, for every action, against the per-rule procedure.
		for _, role := range append(oracleRoles, oracleWriter) {
			for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
				for _, res := range referenceGoverned(data) {
					got := writer.Decide(role, action, res)
					if want := referenceDecide(writer, role, action, res); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d round %d: Decide(%s, %s, %s) = %+v, reference %+v",
							seed, round, role.LocalName(), action.LocalName(), res, got, want)
					}
				}
			}
		}
	}
	if data.Generation() == gen0 || seen == 0 {
		t.Fatalf("seed %d: vacuous run (generation %d -> %d, %d view triples)", seed, gen0, data.Generation(), seen)
	}
	if got, want := eNew.AuditTrail(), eRef.AuditTrail(); !reflect.DeepEqual(got, want) {
		t.Fatalf("seed %d: audit ring differs from the reference (%d vs %d entries)", seed, len(got), len(want))
	}
	if got, want := decisionCounts(regNew), decisionCounts(regRef); got != want {
		t.Fatalf("seed %d: decision counters %v, reference %v", seed, got, want)
	}
	return ref
}

func TestViewMatchesPerResourceReference(t *testing.T) {
	cases := []struct {
		seed  int64
		sites int
		owl   bool
	}{
		{seed: 1, sites: 6, owl: true},
		{seed: 2, sites: 10, owl: false},
		{seed: 3, sites: 8, owl: true},
		{seed: 4, sites: 12, owl: true},
		{seed: 5, sites: 5, owl: false},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("seed%d", c.seed), func(t *testing.T) {
			sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: c.seed, Sites: c.sites})
			got := &journal{}
			ref := runOracle(t, c.seed, sc.Merged, sc, c.owl, got.persist)
			if !reflect.DeepEqual(got.blobs, ref.blobs) {
				t.Fatalf("journaled audit differs from the reference (%d vs %d blobs)", len(got.blobs), len(ref.blobs))
			}
			if got.calls >= ref.calls {
				t.Fatalf("%d persist calls, reference %d: rebuilds are not journaled as one batch", got.calls, ref.calls)
			}
		})
	}
}

// TestViewAuditJournalMatchesReference runs the oracle over a durable store:
// the KindAudit records recovered from the WAL must be exactly the blobs the
// per-resource reference journals, in the same order.
func TestViewAuditJournalMatchesReference(t *testing.T) {
	dir := t.TempDir()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 9, Sites: 8})
	data := store.New()
	repo, err := wal.Open(data, wal.Options{Dir: dir, Fsync: wal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	data.AddAll(sc.Merged.Triples())
	ref := runOracle(t, 9, data, sc, true, repo.AppendAudit)
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := wal.Open(store.New(), wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	got := reopened.AuditReplay()
	if len(got) != len(ref.blobs) {
		t.Fatalf("WAL holds %d audit records, reference journaled %d", len(got), len(ref.blobs))
	}
	for i := range got {
		if !bytes.Equal(got[i], ref.blobs[i]) {
			t.Fatalf("audit record %d differs:\n got %s\nwant %s", i, got[i], ref.blobs[i])
		}
	}
}

// TestViewSharesDataDictionary: a view interns nothing, and neither do
// queries over a cached view, even with constants the data has never seen.
func TestViewSharesDataDictionary(t *testing.T) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 6})
	e := New(sc.Policies, sc.Merged, Options{CacheSize: 8})
	before := e.Data().DictLen()
	view := e.View(datagen.RoleHazmat, seconto.ActionView)
	if view.Dict() != e.Data().Dict() {
		t.Fatal("view has its own dictionary")
	}
	queries := []string{
		`SELECT ?s WHERE { ?s <http://example.org/never#seen> "nowhere" }`,
		`SELECT ?s WHERE { ?s a <http://example.org/never#Class> }`,
		`SELECT ?n WHERE { <http://example.org/never#site> <` + string(datagen.HasSiteName) + `> ?n }`,
		`SELECT ?s ?n WHERE { ?s <` + string(datagen.HasSiteName) + `> ?n . FILTER(?n = "never seen") }`,
	}
	for _, q := range queries {
		if _, err := e.Query(datagen.RoleHazmat, seconto.ActionView, q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if after := e.Data().DictLen(); after != before {
		t.Fatalf("data dictionary grew from %d to %d terms", before, after)
	}
	if got := e.Cache().Snapshot().Misses; got != 1 {
		t.Fatalf("%d cache misses, want the one build", got)
	}
}
