package sparql

import "testing"

// FuzzParseQuery drives the SPARQL lexer and parser with arbitrary query
// text. Invariants: no panic, no hang, and a query that parses gets the same
// fingerprint and canonical form when the same text is parsed again — the
// workload table keys its statistics on that fingerprint.
func FuzzParseQuery(f *testing.F) {
	for _, seed := range []string{
		// The Sec 7.1 load-generator and benchmark shapes.
		`SELECT ?site ?name ?chem WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
  ?site app:hasChemicalInfo ?info .
  ?info app:chemical ?rec .
  ?rec app:hasChemName ?chem .
}`,
		`SELECT ?site ?name WHERE {
  ?site a app:ChemSite .
  ?site app:hasSiteName ?name .
}`,
		`SELECT ?s WHERE { ?s a <http://grdf.org/app#ChemSite> }`,
		`SELECT ?s ?o WHERE { ?s <http://e21/q> ?x . ?s <http://e21/p> ?o }`,
		// The rest of the grammar.
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:risk ?r . FILTER(?r > 1 && ?r < 3) }`,
		`PREFIX ex: <http://e/> SELECT ?s WHERE { ?s ex:name ?n . FILTER(REGEX(?n, "^t", "i")) }`,
		`SELECT ?s WHERE { ?s rdfs:label ?l . FILTER(LANGMATCHES(LANG(?l), "*")) }`,
		`PREFIX ex: <http://e/> SELECT ?site ?st WHERE { ?site a ex:ChemSite . OPTIONAL { ?site ex:nearTo ?st } FILTER(!BOUND(?st)) }`,
		`PREFIX ex: <http://e/> SELECT ?x WHERE { { ?x a ex:ChemSite } UNION { ?x a grdf:Feature } }`,
		`PREFIX ex: <http://e/> SELECT DISTINCT ?r WHERE { ?s ex:risk ?r } ORDER BY DESC(?r) LIMIT 2 OFFSET 1`,
		`PREFIX ex: <http://e/> ASK { ex:site1 ex:risk 4 }`,
		`PREFIX ex: <http://e/> CONSTRUCT { ?s ex:riskyName ?n } WHERE { ?s ex:risk ?r . ?s ex:name ?n }`,
		`PREFIX ex: <http://e/> SELECT ?x WHERE { ex:stream1 (ex:flowsInto/ex:name|^ex:nearTo)+ ?x }`,
		`PREFIX ex: <http://e/> SELECT ?t (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s a ?t } GROUP BY ?t ORDER BY DESC(?n)`,
		`PREFIX ex: <http://e/> SELECT ?s ?d WHERE { ?s ex:risk ?r . BIND(?r * 2 AS ?d) FILTER(?d > 5) }`,
		`PREFIX ex: <http://e/> SELECT ?s ?n WHERE { VALUES ?s { ex:site1 ex:site2 } ?s ex:name ?n }`,
		`SELECT ?s WHERE { ?s ?p "x"@en , "1"^^<http://www.w3.org/2001/XMLSchema#integer> , _:b , 2.5e3 }`,
		// Malformed input.
		`SELECT (COUNT(?x) ?n) WHERE { ?s ?p ?x }`,
		`SELECT ?x WHERE { ?s ?p ?x } GROUP BY`,
		`SELECT ?s WHERE { BIND(1 AS x) }`,
		`SELECT ?s WHERE { ?s ?p "unterminated }`,
		`PREFIX`,
		"",
		"\x00\xff{",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return // bound per-input work; length adds no parser states
		}
		q, err := ParseQuery(src, nil)
		if err != nil {
			return
		}
		again, err := ParseQuery(src, nil)
		if err != nil {
			t.Fatalf("second parse failed: %v\nsource: %q", err, src)
		}
		if q.Fingerprint != again.Fingerprint || q.CanonicalForm != again.CanonicalForm {
			t.Fatalf("fingerprint unstable: %x %q vs %x %q\nsource: %q",
				q.Fingerprint, q.CanonicalForm, again.Fingerprint, again.CanonicalForm, src)
		}
	})
}
