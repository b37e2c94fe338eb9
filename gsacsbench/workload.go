package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"strings"

	"repro/internal/datagen"
	"repro/internal/grdf"
	"repro/internal/gsacs"
	"repro/internal/seconto"
	"repro/internal/turtle"
)

// The Sec 7.1 read shapes, as internal/load's mix issues them.
const (
	hazmatQuery = `SELECT ?site ?name ?chem WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
}`
	erQuery = `SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`
)

// The scenario every workload runs on: 200 sites (~4.5k triples), built
// from gsacs-server's default scenario seed. The benchmark's seed varies the
// request sequence, not the data, so runs differ in order, not in size.
const (
	scenarioSites = 200
	scenarioSeed  = 7
)

// writerRole is the role the server grants write access (-writer-role).
const writerRole = "Writer"

type kind int

const (
	kindHazmat kind = iota
	kindER
	kindView
	kindMutate
	numKinds
)

var kindNames = [numKinds]string{"hazmat", "er", "view", "mutate"}

func (k kind) String() string { return kindNames[k] }

func (k kind) isRead() bool { return k != kindMutate }

// spec is one named workload.
type spec struct {
	name string
	// readWeights weighs the Hazmat query, the EmergencyResponse listing
	// and the MainRep view among reads.
	readWeights [3]int
	// writeEvery makes every writeEvery-th request of a lane a Writer
	// /v1/mutate call (0 = none, 1 = all). A fixed pattern, not a draw, so
	// every run has the same share of writes and of view rebuilds.
	writeEvery int
	// batchOps is the number of update ops in one mutate request.
	batchOps int
	// openRPS is the open-loop arrival rate, set well below the closed-loop
	// capacity measured on a 2-CPU box.
	openRPS float64
}

var specs = []spec{
	// Sec 7.1 reads with no writes: every read hits the warm per-role view
	// cache, so time goes to HTTP and obs middleware, parse, plan, joins and
	// encoding.
	{
		name:        "sec71_read",
		readWeights: [3]int{70, 35, 25},
		batchOps:    1,
		openRPS:     30,
	},
	// The same reads plus 5% site renames: each write bumps the store
	// generation, so each role's next read rebuilds its view (decide,
	// filter, store copy, per-resource audit journaling).
	{
		name:        "sec71_rw",
		readWeights: [3]int{70, 35, 25},
		writeEvery:  20,
		batchOps:    1,
		openRPS:     10,
	},
	// Writer-only batches of renames on disjoint halves of the sites: no
	// view is built; time goes to Modify authorization, group commit and
	// WAL append plus fsync.
	{
		name:       "mutate_batch",
		writeEvery: 1,
		batchOps:   64,
		openRPS:    20,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// request is one generated request. A write carries the renames it applies,
// each replacing the name the benchmark knows is current.
type request struct {
	kind    kind
	path    string // GET path and query, or the POST path for a write
	body    []byte // JSON ops for a write
	renames []rename
}

type rename struct {
	iri, old, new string
}

func (r request) method() string {
	if r.kind == kindMutate {
		return "POST"
	}
	return "GET"
}

var readPaths = [3]string{
	"/v1/query?role=Hazmat&q=" + url.QueryEscape(hazmatQuery),
	"/v1/query?role=EmergencyResponse&q=" + url.QueryEscape(erQuery),
	"/v1/view?role=MainRep",
}

// lane generates the request sequence of one client. Lane i owns the sites
// whose index is i mod 2, and a lane runs its requests one at a time, so
// two lanes never write the same site and every update names the value the
// previous write of that site left.
type lane struct {
	id    int
	sp    spec
	seed  int64
	rng   *rand.Rand
	sites []int
	next  int
	seq   int
	n     int
	names *nameBook
}

// nameBook is the benchmark's record of every site's current name. Lanes
// touch disjoint indices, so it needs no lock while lanes run.
type nameBook struct {
	iris  []string
	names []string
}

func newLanes(sp spec, seed int64, book *nameBook) [2]*lane {
	var ls [2]*lane
	for i := range ls {
		l := &lane{id: i, sp: sp, seed: seed, names: book,
			rng: rand.New(rand.NewSource(seed*1000003 + int64(i)))}
		for s := i; s < len(book.iris); s += 2 {
			l.sites = append(l.sites, s)
		}
		ls[i] = l
	}
	return ls
}

// nextRequest draws the lane's next request and, for a write, records the
// new names as current. Call it only for a request that will be sent.
func (l *lane) nextRequest() request {
	l.n++
	if l.sp.writeEvery > 0 && l.n%l.sp.writeEvery == 0 {
		return l.write()
	}
	w := l.sp.readWeights
	pick := l.rng.Intn(w[0] + w[1] + w[2])
	k := kindHazmat
	switch {
	case pick >= w[0]+w[1]:
		k = kindView
	case pick >= w[0]:
		k = kindER
	}
	return request{kind: k, path: readPaths[k]}
}

type mutateOp struct {
	Op  string `json:"op"`
	Old string `json:"old"`
	New string `json:"new"`
}

func (l *lane) write() request {
	r := request{kind: kindMutate, path: "/v1/mutate?role=" + writerRole}
	ops := make([]mutateOp, 0, l.sp.batchOps)
	for i := 0; i < l.sp.batchOps; i++ {
		site := l.sites[l.next%len(l.sites)]
		l.next++
		l.seq++
		old := l.names.names[site]
		nw := fmt.Sprintf("Site %d.%d.%d", l.seed, l.id, l.seq)
		l.names.names[site] = nw
		r.renames = append(r.renames, rename{iri: l.names.iris[site], old: old, new: nw})
		ops = append(ops, mutateOp{Op: "update",
			Old: nameTriple(l.names.iris[site], old),
			New: nameTriple(l.names.iris[site], nw)})
	}
	body, err := json.Marshal(ops)
	if err != nil {
		panic(err) // a slice of plain structs always encodes
	}
	r.body = body
	return r
}

func nameTriple(iri, name string) string {
	return fmt.Sprintf("<%s> <%s> %q .", iri, string(datagen.HasSiteName), name)
}

// reference holds the answers an in-process engine gives over the same
// seeded scenario; every response is checked against it.
type reference struct {
	hazmatRows int
	erRows     int
	view       []byte // MainRep /v1/view body (names are hidden, so renames never change it)
	book       *nameBook
}

// forbiddenInView lists what MainRep's policies hide: on a ChemSite only
// grdf:boundedBy is visible, never a name, contact or chemical.
var forbiddenInView = func() [][]byte {
	out := [][]byte{}
	for _, p := range []string{"hasSiteName", "hasSiteId", "hasContactName", "hasContactPhone",
		"hasChemicalInfo", "hasChemName", "hasChemCode", "hasQuantityKg"} {
		out = append(out, []byte(p))
	}
	return append(out, chemicalTerms...)
}()

// chemicalTerms are the generator's chemical names and codes.
var chemicalTerms = func() [][]byte {
	var out [][]byte
	for _, s := range []string{"Sulfuric Acid", "121NR", "Anhydrous Ammonia", "208AA",
		"Chlorine", "017CL", "Hydrochloric Acid", "332HC", "Sodium Hydroxide", "415SH",
		"Benzene", "071BZ", "Toluene", "098TL", "Methanol", "190ME", "Nitric Acid", "243NA",
		"Hydrogen Peroxide", "377HP"} {
		out = append(out, []byte(s))
	}
	return out
}()

// chemCodes are the codes alone: Hazmat sees chemical names, never codes.
var chemCodes = func() [][]byte {
	var out [][]byte
	for i := 1; i < len(chemicalTerms); i += 2 {
		out = append(out, chemicalTerms[i])
	}
	return out
}()

// newReference builds the scenario in process, as the server does, and
// records the answers of each read.
func newReference() (*reference, error) {
	sc := datagen.NewScenario(datagen.ScenarioConfig{Seed: scenarioSeed, Sites: scenarioSites})
	eng := gsacs.New(sc.Policies, sc.Merged, gsacs.Options{
		Reasoner: gsacs.NewOWLReasoner(sc.Merged, grdf.Ontology(), seconto.Ontology()),
	})
	ctx := context.Background()
	ref := &reference{book: &nameBook{}}
	for _, s := range sc.Chemical.Sites {
		ref.book.iris = append(ref.book.iris, string(s.IRI))
		ref.book.names = append(ref.book.names, s.Name)
	}
	res, err := eng.QueryCtx(ctx, datagen.RoleHazmat, seconto.ActionView, hazmatQuery)
	if err != nil {
		return nil, fmt.Errorf("reference Hazmat query: %w", err)
	}
	ref.hazmatRows = len(res.Bindings)
	res, err = eng.QueryCtx(ctx, datagen.RoleEmergency, seconto.ActionView, erQuery)
	if err != nil {
		return nil, fmt.Errorf("reference EmergencyResponse query: %w", err)
	}
	ref.erRows = len(res.Bindings)
	var buf bytes.Buffer
	if err := turtle.Write(&buf, eng.ViewCtx(ctx, datagen.RoleMainRepair, seconto.ActionView).Graph(), nil); err != nil {
		return nil, fmt.Errorf("reference MainRep view: %w", err)
	}
	ref.view = buf.Bytes()
	if leak := firstContained(ref.view, forbiddenInView); leak != "" {
		return nil, fmt.Errorf("reference MainRep view leaks %q", leak)
	}
	if ref.hazmatRows == 0 || ref.erRows != scenarioSites {
		return nil, fmt.Errorf("reference answers look wrong: %d Hazmat rows, %d sites", ref.hazmatRows, ref.erRows)
	}
	return ref, nil
}

func firstContained(body []byte, terms [][]byte) string {
	for _, t := range terms {
		if bytes.Contains(body, t) {
			return string(t)
		}
	}
	return ""
}

var rowKey = []byte(`"site":`)

// check reports why a response to r is wrong, or "" when it is right.
func (ref *reference) check(r request, status int, body []byte) string {
	if status != 200 {
		return fmt.Sprintf("%s: status %d: %.200s", r.kind, status, body)
	}
	switch r.kind {
	case kindHazmat:
		if n := bytes.Count(body, rowKey); n != ref.hazmatRows {
			return fmt.Sprintf("hazmat: %d rows, want %d", n, ref.hazmatRows)
		}
		if leak := firstContained(body, chemCodes); leak != "" {
			return fmt.Sprintf("hazmat: answer leaks chemical code %q", leak)
		}
	case kindER:
		if n := bytes.Count(body, rowKey); n != ref.erRows {
			return fmt.Sprintf("er: %d rows, want %d", n, ref.erRows)
		}
	case kindView:
		if !bytes.Equal(body, ref.view) {
			if leak := firstContained(body, forbiddenInView); leak != "" {
				return fmt.Sprintf("view: MainRep sees hidden %q", leak)
			}
			return fmt.Sprintf("view: %d bytes differ from the %d-byte reference", len(body), len(ref.view))
		}
	case kindMutate:
		var out struct {
			Applied int   `json:"applied"`
			Results []int `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			return fmt.Sprintf("mutate: %v", err)
		}
		if out.Applied != len(r.renames) || len(out.Results) != len(r.renames) {
			return fmt.Sprintf("mutate: applied %d of %d ops", out.Applied, len(r.renames))
		}
		for i, n := range out.Results {
			if n == 0 {
				return fmt.Sprintf("mutate: op %d changed nothing", i)
			}
		}
	}
	return ""
}

// checkNames compares an EmergencyResponse listing with the name book: every
// acknowledged rename must be visible, and nothing else may have changed.
func (ref *reference) checkNames(body []byte) string {
	var out struct {
		Results []map[string]string `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Sprintf("name check: %v", err)
	}
	got := make(map[string]string, len(out.Results))
	for _, row := range out.Results {
		got[strings.Trim(row["site"], "<>")] = row["name"]
	}
	for i, iri := range ref.book.iris {
		want := fmt.Sprintf("%q", ref.book.names[i])
		if got[iri] != want {
			return fmt.Sprintf("name check: %s is named %s, want %s", iri, got[iri], want)
		}
	}
	if len(got) != len(ref.book.iris) {
		return fmt.Sprintf("name check: %d sites listed, want %d", len(got), len(ref.book.iris))
	}
	return ""
}
