package gsacs

import (
	"encoding/json"
	"sync"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Audit trail: security middleware must account for its decisions. The
// engine records every Decide outcome into a bounded ring buffer that
// operators can drain; the paper's "emergency response" style of
// administrative oversight needs exactly this record of who saw what.
//
// Because the ring is bounded, a busy server can overwrite entries before
// anyone drains them. The log counts those overwrites so operators can tell
// a complete trail from a truncated one (and size the ring accordingly).

// AuditEntry records one authorization decision.
type AuditEntry struct {
	// Seq is a monotonically increasing sequence number.
	Seq uint64
	// Subject, Action, Resource identify the request.
	Subject  rdf.IRI
	Action   rdf.IRI
	Resource string
	// Allowed and Full summarize the outcome.
	Allowed bool
	Full    bool
	// Policies lists the policy IRIs that fired.
	Policies []rdf.IRI
}

// AuditStats summarizes the ring buffer's occupancy and loss.
type AuditStats struct {
	// Depth is the number of entries currently held.
	Depth int `json:"depth"`
	// Capacity is the ring size.
	Capacity int `json:"capacity"`
	// Recorded is the total number of decisions ever recorded.
	Recorded uint64 `json:"recorded"`
	// Overwritten counts entries lost to ring wraparound.
	Overwritten uint64 `json:"overwritten"`
}

// auditLog is a fixed-capacity ring buffer.
type auditLog struct {
	mu          sync.Mutex
	seq         uint64
	entries     []AuditEntry
	next        int
	full        bool
	overwritten uint64

	mOverwritten *obs.Counter
}

func newAuditLog(capacity int) *auditLog {
	if capacity < 1 {
		capacity = 1
	}
	return &auditLog{entries: make([]AuditEntry, capacity)}
}

// recordAll appends es to the ring under one lock acquisition, so they get
// consecutive sequence numbers; each element of es is stamped with its Seq.
func (l *auditLog) recordAll(es []AuditEntry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range es {
		l.seq++
		es[i].Seq = l.seq
		if l.full {
			// The slot being claimed still holds the oldest unread entry.
			l.overwritten++
			l.mOverwritten.Inc()
		}
		l.entries[l.next] = es[i]
		l.next = (l.next + 1) % len(l.entries)
		if l.next == 0 {
			l.full = true
		}
	}
}

// snapshot returns entries oldest-first.
func (l *auditLog) snapshot() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []AuditEntry
	if l.full {
		out = append(out, l.entries[l.next:]...)
	}
	out = append(out, l.entries[:l.next]...)
	cp := make([]AuditEntry, len(out))
	copy(cp, out)
	return cp
}

// stats reports occupancy without copying entries.
func (l *auditLog) stats() AuditStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	depth := l.next
	if l.full {
		depth = len(l.entries)
	}
	return AuditStats{
		Depth:       depth,
		Capacity:    len(l.entries),
		Recorded:    l.seq,
		Overwritten: l.overwritten,
	}
}

// EnableAudit turns on decision auditing with the given ring capacity.
// Calling it again resizes (and clears) the log.
func (e *Engine) EnableAudit(capacity int) {
	e.audit = newAuditLog(capacity)
	if e.metrics != nil {
		log := e.audit
		log.mOverwritten = e.metrics.Counter("grdf_audit_overwritten_total",
			"Audit entries lost to ring-buffer wraparound.")
		e.metrics.GaugeFunc("grdf_audit_entries", "Audit entries currently buffered.",
			func() float64 { return float64(log.stats().Depth) })
	}
}

// AuditTrail returns the recorded decisions, oldest first. Nil when auditing
// is disabled.
func (e *Engine) AuditTrail() []AuditEntry {
	if e.audit == nil {
		return nil
	}
	return e.audit.snapshot()
}

// AuditStats reports ring occupancy and overwrite loss; the zero value when
// auditing is disabled.
func (e *Engine) AuditStats() AuditStats {
	if e.audit == nil {
		return AuditStats{}
	}
	return e.audit.stats()
}

// SetAuditPersist journals every audit entry through fn as a JSON blob —
// the durable repository's AppendAudit slots in here, making the audit
// trail survive restarts alongside the data it accounts for. Each call
// carries every entry of one decision pass in ring order: one entry for a
// single decision, one per governed resource for a view rebuild. Install it
// before the engine serves traffic. Persist failures are counted per entry
// (grdf_audit_persist_errors_total) but do not fail the decision: the
// authorization outcome must not depend on audit I/O.
func (e *Engine) SetAuditPersist(fn func(...[]byte) error) {
	e.auditPersist = fn
	e.mAuditPersistErr = e.metrics.Counter("grdf_audit_persist_errors_total",
		"Audit entries that could not be journaled durably.")
}

// RestoreAudit refills the audit ring from persisted JSON payloads, oldest
// first, typically with the repository's AuditReplay after recovery.
// Undecodable payloads are skipped (the trail is best-effort diagnostics;
// the WAL's checksums already guarantee the bytes are as written). Entries
// are NOT re-journaled. Call EnableAudit first.
func (e *Engine) RestoreAudit(payloads [][]byte) int {
	if e.audit == nil {
		return 0
	}
	entries := make([]AuditEntry, 0, len(payloads))
	for _, p := range payloads {
		var entry AuditEntry
		if err := json.Unmarshal(p, &entry); err != nil {
			continue
		}
		entries = append(entries, entry)
	}
	e.audit.recordAll(entries)
	return len(entries)
}

// recordAudit records entries into the ring, in order and under one lock,
// then journals them with one persist call. Callers check that auditing is
// enabled before building entries.
func (e *Engine) recordAudit(entries ...AuditEntry) {
	if len(entries) == 0 {
		return
	}
	e.audit.recordAll(entries)
	if e.auditPersist == nil {
		return
	}
	blobs := make([][]byte, 0, len(entries))
	for _, entry := range entries {
		blob, err := json.Marshal(entry)
		if err != nil {
			e.mAuditPersistErr.Inc()
			continue
		}
		blobs = append(blobs, blob)
	}
	if len(blobs) > 0 {
		if err := e.auditPersist(blobs...); err != nil {
			e.mAuditPersistErr.Add(float64(len(blobs)))
		}
	}
}
