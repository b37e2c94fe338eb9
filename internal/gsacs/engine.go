// Package gsacs implements the Geospatial Security Access Control System of
// Section 8 / Fig. 3 of the paper: a front-end interface (Server), the
// Decision Engine that determines "what level of permission is warranted for
// a particular user", a Query Cache ("having a caching mechanism that stores
// the queries and corresponding answers would provide a significant
// performance boost"), a plug-and-play Reasoning Engine interface, and the
// Onto Repository holding GRDF and the security ontologies.
//
// The distinguishing capability — the one the paper holds against GeoXACML —
// is property-level filtering: a role can be granted just the grdf:boundedBy
// extent of a chemical site while its chemical inventory stays hidden.
package gsacs

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grdf"
	"repro/internal/obs"
	"repro/internal/obs/workload"
	"repro/internal/owl"
	"repro/internal/rdf"
	"repro/internal/seconto"
	"repro/internal/store"
)

// Reasoner is the plug-and-play reasoning interface of Fig. 3: "any OWL
// reasoning engine could be plugged into the system to meet the need."
// The owl package's Reasoner satisfies it.
type Reasoner interface {
	// IsSubClassOf reports sub ⊑ super (reflexive).
	IsSubClassOf(sub, super rdf.Term) bool
	// IsSubPropertyOf reports sub ⊑ super for properties (reflexive).
	IsSubPropertyOf(sub, super rdf.Term) bool
	// TypesOf returns the (materialized) types of an individual.
	TypesOf(ind rdf.Term) []rdf.Term
}

// nilReasoner answers structurally (no inference) when no reasoner is
// plugged in.
type nilReasoner struct{ data *store.Store }

func (n nilReasoner) IsSubClassOf(sub, super rdf.Term) bool {
	return sub.Equal(super) || n.data.Has(rdf.T(sub, rdf.RDFSSubClassOf, super))
}
func (n nilReasoner) IsSubPropertyOf(sub, super rdf.Term) bool {
	return sub.Equal(super) || n.data.Has(rdf.T(sub, rdf.RDFSSubPropertyOf, super))
}
func (n nilReasoner) TypesOf(ind rdf.Term) []rdf.Term {
	return n.data.Objects(ind, rdf.RDFType)
}

// Engine wires policies, data and a reasoner together.
type Engine struct {
	policies *seconto.Set
	data     *store.Store
	// reasoner is swapped atomically: a read replica rebuilds it over the
	// fresh triple set after every bootstrap, concurrently with decisions
	// already in flight.
	reasoner atomic.Pointer[Reasoner]
	cache    *QueryCache
	audit    *auditLog

	// auditPersist, when set, journals every audit entry durably (see
	// SetAuditPersist).
	auditPersist     func(...[]byte) error
	mAuditPersistErr *obs.Counter

	// metrics is the observability registry (nil disables; every handle
	// derived from it is nil-safe).
	metrics  *obs.Registry
	mAllowed *obs.Counter
	mDenied  *obs.Counter

	// workload, when set, receives one observation per evaluated query —
	// fingerprint, latency, rows, plan drift (see SetWorkload).
	workload *workload.Table
}

// SetWorkload attaches the per-fingerprint workload stats table: every
// QueryCtx evaluation is summarized into it through the SPARQL engine's
// stats sink. Call before serving queries (nil detaches).
func (e *Engine) SetWorkload(t *workload.Table) { e.workload = t }

// Workload returns the attached stats table (nil when detached).
func (e *Engine) Workload() *workload.Table { return e.workload }

// Options configures New.
type Options struct {
	// Reasoner plugs in an inference engine; nil uses direct assertions only.
	Reasoner Reasoner
	// CacheSize bounds the query cache (entries); 0 disables caching.
	CacheSize int
	// Metrics receives decision, cache and query instrumentation; nil
	// disables it.
	Metrics *obs.Registry
}

// New builds an engine over a policy set and a data store.
func New(policies *seconto.Set, data *store.Store, opts Options) *Engine {
	e := &Engine{policies: policies, data: data, metrics: opts.Metrics}
	e.SetReasoner(opts.Reasoner)
	if opts.CacheSize > 0 {
		e.cache = NewQueryCache(opts.CacheSize)
		if e.metrics != nil {
			e.cache.instrument(e.metrics)
		}
	}
	e.mAllowed = e.metrics.Counter("grdf_decisions_total",
		"Access decisions by outcome.", "outcome", "allowed")
	e.mDenied = e.metrics.Counter("grdf_decisions_total",
		"Access decisions by outcome.", "outcome", "denied")
	return e
}

// Metrics returns the engine's registry (nil when observability is off).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SetReasoner swaps the inference engine (nil restores direct assertions
// only). Crash recovery and replication both need it: the server builds the
// engine over an empty store, fills it (durable recovery, or a replica's
// snapshot bootstrap), and only then materializes the reasoner over the
// loaded triples. The swap is atomic — a replica re-bootstraps while
// serving, so a decision in flight keeps the reasoner it started with and
// the next decision sees the new one.
func (e *Engine) SetReasoner(r Reasoner) {
	if r == nil {
		r = nilReasoner{data: e.data}
	}
	e.reasoner.Store(&r)
}

// Reasoner returns the current inference engine. Callers that make several
// reasoner calls for one decision read it once, so the decision is judged
// by a single consistent reasoner even if a bootstrap swaps it mid-flight.
func (e *Engine) Reasoner() Reasoner { return *e.reasoner.Load() }

// Data exposes the underlying (unfiltered) store — for administrative paths
// only.
func (e *Engine) Data() *store.Store { return e.data }

// Policies exposes the rule set.
func (e *Engine) Policies() *seconto.Set { return e.policies }

// Cache returns the engine's query cache (nil when disabled).
func (e *Engine) Cache() *QueryCache { return e.cache }

// Access is the decision for one (subject, action, resource) triple — the
// Decision Engine's output.
type Access struct {
	// Allowed is false when the resource is completely hidden.
	Allowed bool
	// Full grants every property.
	Full bool
	// Properties are the visible properties when !Full.
	Properties map[rdf.IRI]bool
	// denied records property-level denies that survive a Full grant.
	denied map[rdf.IRI]bool
	// Matched lists the policies that fired, for audit.
	Matched []rdf.IRI
}

// PropertyVisible reports whether the access allows viewing property p,
// honouring subproperty entailment through the reasoner.
func (a Access) PropertyVisible(p rdf.IRI, r Reasoner) bool {
	if !a.Allowed {
		return false
	}
	var pt rdf.Term = p
	for d := range a.denied {
		if r.IsSubPropertyOf(pt, d) {
			return false
		}
	}
	if a.Full || a.Properties[p] {
		// A direct grant needs no reasoning: ⊑ is reflexive.
		return true
	}
	for allowed := range a.Properties {
		if r.IsSubPropertyOf(pt, allowed) {
			return true
		}
	}
	return false
}

// Decide runs the decision procedure for subject performing action on
// resource. Policies match when their Resource equals the resource, equals
// one of its types, or is a superclass of one of its types (this is where
// reasoning pays off: a policy over grdf:Feature covers every domain
// subclass). Spatially-scoped policies additionally require the resource's
// geometry to lie within the scope. Conflicts resolve by priority; at equal
// priority deny overrides permit.
func (e *Engine) Decide(subject, action rdf.IRI, resource rdf.Term) Access {
	dc := e.decisionContext(subject, action)
	acc := dc.decide(resource)
	if e.audit != nil {
		e.recordAudit(dc.auditEntry(resource, acc))
	}
	return acc
}

// DecideCtx is the context-first form of Decide: it refuses to start once
// ctx is done, returning ctx.Err(). The decision itself is in-memory and
// fast, so no further checks happen mid-decision. On a traced context the
// decision gets a gsacs.decide span carrying role, outcome and how many
// policies fired.
func (e *Engine) DecideCtx(ctx context.Context, subject, action rdf.IRI, resource rdf.Term) (Access, error) {
	if err := ctx.Err(); err != nil {
		return Access{}, err
	}
	_, sp := obs.StartSpan(ctx, "gsacs.decide")
	sp.SetAttr("role", subject.LocalName())
	sp.SetAttr("action", action.LocalName())
	acc := e.Decide(subject, action, resource)
	if acc.Allowed {
		sp.SetAttr("outcome", "allowed")
	} else {
		sp.SetAttr("outcome", "denied")
	}
	sp.Add("policies_matched", int64(len(acc.Matched)))
	sp.End()
	return acc, nil
}

// decisionCtx is what every decision for one (subject, action) pair shares:
// the subject's rules for that action in priority order, the reasoner read
// once, and the per-role latency histogram. A view rebuild decides every
// governed resource through one context.
type decisionCtx struct {
	e       *Engine
	subject rdf.IRI
	action  rdf.IRI
	rules   []seconto.Rule
	// covered holds each rule's Resource as a Term, boxed once for the
	// reasoner calls.
	covered  []rdf.Term
	reasoner Reasoner
	hist     *obs.Histogram
}

func (e *Engine) decisionContext(subject, action rdf.IRI) *decisionCtx {
	dc := &decisionCtx{e: e, subject: subject, action: action, reasoner: e.Reasoner()}
	for _, r := range e.policies.ForSubject(subject) {
		if r.Action == action {
			dc.rules = append(dc.rules, r)
			dc.covered = append(dc.covered, r.Resource)
		}
	}
	if e.metrics != nil {
		dc.hist = e.metrics.Histogram("grdf_decision_duration_seconds",
			"Decision-engine latency by role.", nil,
			"role", subject.LocalName())
	}
	return dc
}

// decide runs the decision procedure for one resource and counts its
// outcome. Auditing is the caller's job (see auditEntry).
func (dc *decisionCtx) decide(resource rdf.Term) Access {
	var start time.Time
	if dc.hist != nil {
		start = time.Now()
	}
	acc := dc.evaluate(resource)
	if dc.hist != nil {
		if acc.Allowed {
			dc.e.mAllowed.Inc()
		} else {
			dc.e.mDenied.Inc()
		}
		dc.hist.ObserveSince(start)
	}
	return acc
}

// auditEntry describes the decision acc on resource for the audit trail.
func (dc *decisionCtx) auditEntry(resource rdf.Term, acc Access) AuditEntry {
	return AuditEntry{
		Subject:  dc.subject,
		Action:   dc.action,
		Resource: resource.String(),
		Allowed:  acc.Allowed,
		Full:     acc.Full,
		Policies: append([]rdf.IRI(nil), acc.Matched...),
	}
}

// resourceFacts holds what the rules ask about one resource, each read on
// first use: its types (entailed, then asserted) and its geometry.
type resourceFacts struct {
	types     []rdf.Term
	typesRead bool
	geom      geom.Geometry
	geomErr   error
	geomRead  bool
}

// evaluate is the un-instrumented decision procedure.
func (dc *decisionCtx) evaluate(resource rdf.Term) Access {
	var facts resourceFacts
	var applicable []seconto.Rule
	for i, r := range dc.rules {
		if !dc.covers(dc.covered[i], resource, &facts) {
			continue
		}
		if r.SpatialScope != nil && !dc.withinScope(resource, *r.SpatialScope, &facts) {
			continue
		}
		applicable = append(applicable, r)
	}
	if len(applicable) == 0 {
		return Access{} // default deny (closed world)
	}
	// Fold from lowest to highest priority so later rules override. Within
	// one priority class permits apply before denies (deny overrides).
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
			acc.Matched = acc.Matched[:0]
			acc.Matched = append(acc.Matched, r.ID)
		default: // deny specific properties
			for _, p := range r.Properties {
				delete(acc.Properties, p)
				acc.denied[p] = true
			}
		}
	}
	acc.Allowed = acc.Full || len(acc.Properties) > 0
	return acc
}

// covers reports whether a policy over policyRes covers resource: the
// resource itself, or any of its types — entailed by the reasoner or
// asserted in the data, for when the reasoner is external to the data — up
// to subclass entailment.
func (dc *decisionCtx) covers(policyRes, resource rdf.Term, f *resourceFacts) bool {
	if policyRes.Equal(resource) {
		return true
	}
	if !f.typesRead {
		entailed := dc.reasoner.TypesOf(resource)
		asserted := dc.e.data.Objects(resource, rdf.RDFType)
		f.types = make([]rdf.Term, 0, len(entailed)+len(asserted))
		f.types = append(append(f.types, entailed...), asserted...)
		f.typesRead = true
	}
	for _, ty := range f.types {
		if dc.reasoner.IsSubClassOf(ty, policyRes) {
			return true
		}
	}
	return false
}

func (dc *decisionCtx) withinScope(resource rdf.Term, scope geom.Envelope, f *resourceFacts) bool {
	if !f.geomRead {
		f.geom, _, f.geomErr = grdf.GeometryOf(dc.e.data, resource)
		f.geomRead = true
	}
	return f.geomErr == nil && geom.Within(f.geom, scope)
}

// NewOWLReasoner materializes the given ontologies plus the data and returns
// an owl.Reasoner ready to plug into Options.Reasoner.
func NewOWLReasoner(data *store.Store, ontologies ...*rdf.Graph) *owl.Reasoner {
	r := owl.NewReasoner()
	for _, g := range ontologies {
		r.AddGraph(g)
	}
	r.AddAll(data.Triples())
	return r
}
