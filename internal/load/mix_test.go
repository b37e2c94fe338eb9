package load

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// testServer spins up a gsacs server over the built-in scenario with a
// writer role, mirroring gsacs-server -writer-role Writer.
func testServer(t *testing.T) (*httptest.Server, string, *store.Store) {
	t.Helper()
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: 7, Sites: 4})
	writer := rdf.IRI(seconto.NS + "Writer")
	for _, action := range []rdf.IRI{seconto.ActionView, seconto.ActionModify, seconto.ActionDelete} {
		sc.Policies.Rules = append(sc.Policies.Rules, seconto.Rule{
			ID:       rdf.IRI(seconto.NS + "LoadWriter" + action.LocalName()),
			Subject:  writer,
			Action:   action,
			Resource: grdf.Feature,
			Permit:   true,
		})
	}
	reasoner := gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology())
	e := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{Reasoner: reasoner})
	srv := httptest.NewServer(gsacs.NewServer(e, nil))
	t.Cleanup(srv.Close)
	return srv, string(sc.Chemical.Sites[0].IRI), sc.Merged
}

func TestScenarioArmsEndToEnd(t *testing.T) {
	srv, site, _ := testServer(t)
	arms, err := ScenarioArms(MixConfig{
		BaseURL:    srv.URL,
		Client:     srv.Client(),
		WriterRole: "Writer",
		MutateSite: site,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 4 {
		t.Fatalf("arms %d, want query x2 + view + mutate", len(arms))
	}
	ctx := context.Background()
	for _, arm := range arms {
		out, err := arm.Do(ctx)
		if out != OK || err != nil {
			t.Errorf("arm %s: outcome %v err %v", arm.Name, out, err)
		}
	}
}

// TestMutateArmBoundedWrites: every write of the mutate arm must move the
// generation, so readers rebuild as after any real write, while the data
// stays the same size however many writes a run makes.
func TestMutateArmBoundedWrites(t *testing.T) {
	srv, site, data := testServer(t)
	arms, err := ScenarioArms(MixConfig{
		BaseURL:      srv.URL,
		Client:       srv.Client(),
		WriterRole:   "Writer",
		MutateSite:   site,
		MutateWeight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mutate *Arm
	for i := range arms {
		if arms[i].Name == "mutate:Writer" {
			mutate = &arms[i]
		}
	}
	if mutate == nil {
		t.Fatal("no mutate arm")
	}
	n0, gen0 := data.Len(), data.Generation()
	for i := 0; i < 200; i++ {
		gen := data.Generation()
		if out, err := mutate.Do(context.Background()); out != OK || err != nil {
			t.Fatalf("write %d: outcome %v err %v", i, out, err)
		}
		if data.Generation() == gen {
			t.Fatalf("write %d left the generation at %d", i, gen)
		}
	}
	if grew := data.Len() - n0; grew > 2 {
		t.Fatalf("200 writes grew the data by %d triples", grew)
	}
	if data.Generation() <= gen0 {
		t.Fatal("generation did not advance")
	}
}

func TestScenarioArmsMutateDisabledWithoutWriter(t *testing.T) {
	arms, err := ScenarioArms(MixConfig{BaseURL: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arms {
		if len(a.Name) >= 6 && a.Name[:6] == "mutate" {
			t.Fatal("mutate arm present without a writer role")
		}
	}
	if _, err := ScenarioArms(MixConfig{}); err == nil {
		t.Fatal("missing BaseURL accepted")
	}
}

// TestScenarioArmsRoundRobin: with several targets the read arms must
// spread evenly across all of them, and the mutate arm must pin to the
// first (the leader of a replicated deployment).
func TestScenarioArmsRoundRobin(t *testing.T) {
	const n = 3
	hits := make([]int, n)
	bases := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i]++
			fmt.Fprint(w, `{"results":[]}`)
		}))
		t.Cleanup(srv.Close)
		bases[i] = srv.URL
	}
	arms, err := ScenarioArms(MixConfig{BaseURLs: bases, WriterRole: "Writer", MutateWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const rounds = 12
	for r := 0; r < rounds; r++ {
		for _, arm := range arms {
			if arm.Name[:6] == "mutate" {
				continue
			}
			if out, err := arm.Do(ctx); out != OK || err != nil {
				t.Fatalf("arm %s: %v %v", arm.Name, out, err)
			}
		}
	}
	// 3 read arms x 12 rounds over 3 targets: exactly 12 requests each.
	for i, h := range hits {
		if h != rounds {
			t.Fatalf("target %d served %d requests, want %d (hits %v)", i, h, rounds, hits)
		}
	}
	// The mutate arm addresses the first target only.
	before := append([]int(nil), hits...)
	for _, arm := range arms {
		if arm.Name[:6] != "mutate" {
			continue
		}
		for r := 0; r < 4; r++ {
			arm.Do(ctx) // outcome irrelevant; the stub is not a gsacs server
		}
	}
	if hits[0] != before[0]+4 || hits[1] != before[1] || hits[2] != before[2] {
		t.Fatalf("mutations not pinned to the first target: before %v after %v", before, hits)
	}
}

// TestRunAgainstLiveServer is the harness acceptance loop: a short open-loop
// run against a real server must complete with zero errors and a verdict.
func TestRunAgainstLiveServer(t *testing.T) {
	srv, site, _ := testServer(t)
	arms, err := ScenarioArms(MixConfig{
		BaseURL:    srv.URL,
		Client:     srv.Client(),
		WriterRole: "Writer",
		MutateSite: site,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(context.Background(), Config{
		RPS:      50,
		Duration: 300 * time.Millisecond,
		Arms:     arms,
		SLO:      SLO{Latency: 5 * time.Second, Availability: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report()
	if rep.Errors != 0 {
		t.Fatalf("errors against a healthy server: %+v", rep)
	}
	if rep.Requests < 5 {
		t.Fatalf("only %d requests", rep.Requests)
	}
	if !rep.SLO.Pass {
		t.Fatalf("generous SLO failed: %+v", rep.SLO)
	}
}

func TestClassify(t *testing.T) {
	mk := func(status int, body string) (*http.Response, error) {
		rec := httptest.NewRecorder()
		rec.WriteHeader(status)
		fmt.Fprint(rec, body)
		return rec.Result(), nil
	}
	if out, err := classify(mk(200, `{"solutions":[]}`)); out != OK || err != nil {
		t.Errorf("200 = %v %v", out, err)
	}
	if out, _ := classify(mk(200, `{"degraded":true,"solutions":[]}`)); out != Degraded {
		t.Errorf("degraded = %v", out)
	}
	if out, err := classify(mk(500, "boom")); out != Error || err == nil {
		t.Errorf("500 = %v %v", out, err)
	}
	if out, err := classify(mk(429, `{"error":"shed","code":"overloaded"}`)); out != Shed || err != nil {
		t.Errorf("429 = %v %v, want Shed with no error", out, err)
	}
	if out, err := classify(mk(403, "denied")); out != Error || err == nil {
		t.Errorf("403 = %v %v", out, err)
	}
	if out, err := classify(nil, fmt.Errorf("dial refused")); out != Error || err == nil {
		t.Errorf("transport error = %v %v", out, err)
	}
}
