package gsacs

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
	"repro/internal/wal"
)

// BenchmarkViewRebuild measures what one write costs the Sec 7.1 readers:
// after a generation bump every role's cached view is stale, so the next
// Hazmat, EmergencyResponse and MainRep reads each rebuild theirs (decide,
// filter, copy, audit). One op is those three rebuilds, over 200 sites with
// metrics on and the audit trail journaled to a WAL.
func BenchmarkViewRebuild(b *testing.B) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 200})
	reg := obs.NewRegistry()
	st := store.New().Instrument(reg)
	repo, err := wal.Open(st, wal.Options{Dir: b.TempDir(), Fsync: wal.FsyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	st.AddAll(sc.Merged.Triples())
	reasoner := NewOWLReasoner(st, grdf.Ontology(), seconto.Ontology())
	e := New(sc.Policies, st, Options{Reasoner: reasoner, CacheSize: 32, Metrics: reg})
	e.EnableAudit(256)
	e.SetAuditPersist(repo.AppendAudit)
	roles := []rdf.IRI{datagen.RoleHazmat, datagen.RoleEmergency, datagen.RoleMainRepair}
	// The bump swaps a note on one site between two values, so the data
	// stays the same size however many iterations run.
	site := sc.Chemical.Sites[0].IRI
	note := func(i int) rdf.Triple {
		return rdf.T(site, rdf.IRI("http://example.org/bench#note"), rdf.NewString(fmt.Sprintf("n%d", i%2)))
	}
	st.Add(note(0))

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if ok, err := st.Replace(note(i), note(i+1)); !ok || err != nil {
			b.Fatalf("generation bump: %v %v", ok, err)
		}
		b.StartTimer()
		for _, role := range roles {
			if v := e.ViewCtx(ctx, role, seconto.ActionView); v.Len() == 0 {
				b.Fatalf("%s: empty view", role.LocalName())
			}
		}
	}
}
