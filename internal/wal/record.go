package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"

	"repro/internal/ntriples"
	"repro/internal/rdf"
	"repro/internal/store"
)

// Kind discriminates WAL record types. Mutation kinds mirror store.OpKind;
// KindAudit carries an opaque side payload (the G-SACS audit trail) that
// rides the same durability machinery without the wal package knowing its
// schema.
type Kind uint8

const (
	// KindAdd is a batch triple insertion.
	KindAdd Kind = 1
	// KindRemove is a batch triple deletion.
	KindRemove Kind = 2
	// KindReplace atomically swaps Triples[0] for Triples[1].
	KindReplace Kind = 3
	// KindClear empties the store.
	KindClear Kind = 4
	// KindAudit carries an opaque audit payload in Data.
	KindAudit Kind = 5
	// KindBatch is one atomic multi-op commit (a /v1/mutate batch): all of
	// its sub-ops live inside a single frame, so the one-frame atomicity the
	// torn-tail repair already provides makes batch replay all-or-nothing for
	// free — recovery can never resurrect half a batch.
	KindBatch Kind = 6
)

func (k Kind) String() string {
	switch k {
	case KindAdd:
		return "add"
	case KindRemove:
		return "remove"
	case KindReplace:
		return "replace"
	case KindClear:
		return "clear"
	case KindAudit:
		return "audit"
	case KindBatch:
		return "batch"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Record is one WAL entry. Mutation records carry the store generation
// observed when the op was committed, which recovery reports for
// diagnostics.
type Record struct {
	Kind    Kind
	Gen     uint64
	Triples []rdf.Triple // mutation kinds; [old, new] for KindReplace
	Data    []byte       // KindAudit payload
	Ops     []SubOp      // KindBatch sub-ops, in apply order
}

// SubOp is one mutation of a KindBatch record.
type SubOp struct {
	Kind    Kind
	Triples []rdf.Triple
}

// On-disk frame: uint32 LE payload length, uint32 LE CRC32C of the payload,
// then the payload. The payload is kind (1 byte), generation (uvarint),
// item count (uvarint), then count length-prefixed items — N-Triples
// statements for mutation records, one opaque blob for audit records.
const frameHeaderLen = 8

// maxRecordBytes bounds a single record so a corrupt length prefix cannot
// force a giant allocation during recovery.
const maxRecordBytes = 64 << 20

// castagnoli is the CRC32C table (the checksum polynomial used by iSCSI,
// ext4 and most modern WAL implementations; hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrTorn reports an incomplete final record: the frame claims more
	// bytes than the file holds. Recovery truncates it away.
	ErrTorn = errors.New("wal: torn record at log tail")
	// ErrCorrupt reports a record whose checksum or structure is invalid —
	// recovery refuses rather than load silently-corrupt data.
	ErrCorrupt = errors.New("wal: corrupt record")
)

// opKindOf maps a store op kind to its record kind.
func opKindOf(k store.OpKind) (Kind, bool) {
	switch k {
	case store.OpAdd:
		return KindAdd, true
	case store.OpRemove:
		return KindRemove, true
	case store.OpReplace:
		return KindReplace, true
	case store.OpClear:
		return KindClear, true
	}
	return 0, false
}

// encodeRecord renders the full frame (header + payload) for r.
func encodeRecord(r Record) ([]byte, error) {
	// The payload is appended behind a reserved header, so a frame costs one
	// allocation when its size is known up front.
	frame := make([]byte, frameHeaderLen, frameHeaderLen+64+len(r.Data))
	frame = append(frame, byte(r.Kind))
	frame = binary.AppendUvarint(frame, r.Gen)
	switch r.Kind {
	case KindAdd, KindRemove, KindReplace, KindClear:
		if r.Kind == KindReplace && len(r.Triples) != 2 {
			return nil, fmt.Errorf("wal: replace record needs [old, new], got %d triples", len(r.Triples))
		}
		frame = binary.AppendUvarint(frame, uint64(len(r.Triples)))
		for _, t := range r.Triples {
			line := t.String()
			frame = binary.AppendUvarint(frame, uint64(len(line)))
			frame = append(frame, line...)
		}
	case KindAudit:
		frame = binary.AppendUvarint(frame, 1)
		frame = binary.AppendUvarint(frame, uint64(len(r.Data)))
		frame = append(frame, r.Data...)
	case KindBatch:
		if len(r.Ops) == 0 {
			return nil, fmt.Errorf("wal: batch record needs at least one sub-op")
		}
		frame = binary.AppendUvarint(frame, uint64(len(r.Ops)))
		for i, sub := range r.Ops {
			blob, err := encodeSubOp(sub)
			if err != nil {
				return nil, fmt.Errorf("wal: batch sub-op %d: %w", i, err)
			}
			frame = binary.AppendUvarint(frame, uint64(len(blob)))
			frame = append(frame, blob...)
		}
	default:
		return nil, fmt.Errorf("wal: cannot encode record kind %d", r.Kind)
	}
	payload := frame[frameHeaderLen:]
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	return frame, nil
}

// EncodeRecord renders the full on-disk/wire frame (length + CRC32C header
// + payload) for r. Exported for the replication transport, which ships
// frames byte-identical to their disk representation.
func EncodeRecord(r Record) ([]byte, error) { return encodeRecord(r) }

// DecodeRecord decodes one record from buf starting at off, returning the
// record and the offset of the next frame. io.EOF signals a clean end of
// input; ErrTorn an incomplete tail frame; ErrCorrupt a checksum or
// structure violation. A replication follower runs every streamed frame
// through this — the same verification recovery uses — before applying it.
func DecodeRecord(buf []byte, off int) (Record, int, error) { return decodeRecord(buf, off) }

// frameAt verifies the length header and CRC32C of the frame starting at
// off and returns the raw frame bytes (header included) plus the next
// offset — without parsing the payload. The streaming read path uses this
// to slice frames out of segments cheaply; full structural validation
// happens on the receiving side via DecodeRecord.
func frameAt(buf []byte, off int) ([]byte, int, error) {
	rest := buf[off:]
	if len(rest) < frameHeaderLen {
		return nil, off, fmt.Errorf("%w: %d trailing bytes, need %d for a frame header",
			ErrTorn, len(rest), frameHeaderLen)
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	crc := binary.LittleEndian.Uint32(rest[4:8])
	if n == 0 {
		return nil, off, fmt.Errorf("%w: zero-length frame (zero-fill tail)", ErrTorn)
	}
	if n > maxRecordBytes {
		return nil, off, fmt.Errorf("%w: frame claims %d bytes (limit %d)", ErrCorrupt, n, maxRecordBytes)
	}
	if len(rest) < frameHeaderLen+int(n) {
		return nil, off, fmt.Errorf("%w: frame claims %d bytes, only %d remain",
			ErrTorn, n, len(rest)-frameHeaderLen)
	}
	payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return nil, off, fmt.Errorf("%w: checksum mismatch at offset %d (stored %08x, computed %08x)",
			ErrCorrupt, off, crc, got)
	}
	end := off + frameHeaderLen + int(n)
	return buf[off:end], end, nil
}

// decodeRecord decodes one record from buf starting at off, returning the
// record and the offset of the next frame. io.EOF signals a clean end of
// log; ErrTorn an incomplete tail frame; ErrCorrupt a checksum or structure
// violation.
func decodeRecord(buf []byte, off int) (Record, int, error) {
	if off == len(buf) {
		return Record{}, off, io.EOF
	}
	rest := buf[off:]
	if len(rest) < frameHeaderLen {
		return Record{}, off, fmt.Errorf("%w: %d trailing bytes, need %d for a frame header",
			ErrTorn, len(rest), frameHeaderLen)
	}
	n := binary.LittleEndian.Uint32(rest[0:4])
	crc := binary.LittleEndian.Uint32(rest[4:8])
	if n == 0 {
		// A written frame is never empty; zero-length frames are the
		// zero-fill signature some filesystems leave after a crash.
		return Record{}, off, fmt.Errorf("%w: zero-length frame (zero-fill tail)", ErrTorn)
	}
	if n > maxRecordBytes {
		return Record{}, off, fmt.Errorf("%w: frame claims %d bytes (limit %d)", ErrCorrupt, n, maxRecordBytes)
	}
	if len(rest) < frameHeaderLen+int(n) {
		return Record{}, off, fmt.Errorf("%w: frame claims %d bytes, only %d remain",
			ErrTorn, n, len(rest)-frameHeaderLen)
	}
	payload := rest[frameHeaderLen : frameHeaderLen+int(n)]
	if got := crc32.Checksum(payload, castagnoli); got != crc {
		return Record{}, off, fmt.Errorf("%w: checksum mismatch at offset %d (stored %08x, computed %08x)",
			ErrCorrupt, off, crc, got)
	}
	rec, err := decodePayload(payload)
	if err != nil {
		return Record{}, off, err
	}
	return rec, off + frameHeaderLen + int(n), nil
}

// decodePayload parses a checksum-verified payload. Structural errors are
// still ErrCorrupt: the checksum matched, but the bytes are not a record we
// ever wrote.
func decodePayload(payload []byte) (Record, error) {
	corrupt := func(format string, args ...any) (Record, error) {
		return Record{}, fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(payload) == 0 {
		return corrupt("empty payload")
	}
	rec := Record{Kind: Kind(payload[0])}
	p := payload[1:]
	gen, used := binary.Uvarint(p)
	if used <= 0 {
		return corrupt("bad generation varint")
	}
	rec.Gen = gen
	p = p[used:]
	count, used := binary.Uvarint(p)
	if used <= 0 {
		return corrupt("bad item count varint")
	}
	p = p[used:]
	if count > uint64(len(p)) {
		return corrupt("item count %d exceeds payload", count)
	}
	items := make([][]byte, 0, count)
	for i := uint64(0); i < count; i++ {
		n, used := binary.Uvarint(p)
		if used <= 0 {
			return corrupt("bad item length varint (item %d)", i)
		}
		p = p[used:]
		if n > uint64(len(p)) {
			return corrupt("item %d claims %d bytes, %d remain", i, n, len(p))
		}
		items = append(items, p[:n])
		p = p[n:]
	}
	if len(p) != 0 {
		return corrupt("%d stray bytes after last item", len(p))
	}
	switch rec.Kind {
	case KindAdd, KindRemove, KindReplace, KindClear:
		if rec.Kind == KindReplace && len(items) != 2 {
			return corrupt("replace record has %d items, want 2", len(items))
		}
		rec.Triples = make([]rdf.Triple, 0, len(items))
		for i, it := range items {
			t, err := parseTripleLine(string(it))
			if err != nil {
				return corrupt("item %d: %v", i, err)
			}
			rec.Triples = append(rec.Triples, t)
		}
	case KindAudit:
		if len(items) != 1 {
			return corrupt("audit record has %d items, want 1", len(items))
		}
		rec.Data = append([]byte(nil), items[0]...)
	case KindBatch:
		if len(items) == 0 {
			return corrupt("batch record has no sub-ops")
		}
		rec.Ops = make([]SubOp, 0, len(items))
		for i, it := range items {
			sub, err := decodeSubOp(it)
			if err != nil {
				return corrupt("batch sub-op %d: %v", i, err)
			}
			rec.Ops = append(rec.Ops, sub)
		}
	default:
		return corrupt("unknown record kind %d", uint8(rec.Kind))
	}
	return rec, nil
}

// encodeSubOp renders one KindBatch item: sub-op kind (1 byte), triple count
// (uvarint), then length-prefixed N-Triples statements.
func encodeSubOp(sub SubOp) ([]byte, error) {
	switch sub.Kind {
	case KindAdd, KindRemove, KindClear:
	case KindReplace:
		if len(sub.Triples) != 2 {
			return nil, fmt.Errorf("replace sub-op needs [old, new], got %d triples", len(sub.Triples))
		}
	default:
		return nil, fmt.Errorf("kind %s cannot appear in a batch", sub.Kind)
	}
	blob := make([]byte, 0, 64)
	blob = append(blob, byte(sub.Kind))
	blob = binary.AppendUvarint(blob, uint64(len(sub.Triples)))
	for _, t := range sub.Triples {
		line := t.String()
		blob = binary.AppendUvarint(blob, uint64(len(line)))
		blob = append(blob, line...)
	}
	return blob, nil
}

func decodeSubOp(blob []byte) (SubOp, error) {
	if len(blob) == 0 {
		return SubOp{}, fmt.Errorf("empty sub-op")
	}
	sub := SubOp{Kind: Kind(blob[0])}
	switch sub.Kind {
	case KindAdd, KindRemove, KindReplace, KindClear:
	default:
		return SubOp{}, fmt.Errorf("kind %d cannot appear in a batch", uint8(sub.Kind))
	}
	p := blob[1:]
	count, used := binary.Uvarint(p)
	if used <= 0 {
		return SubOp{}, fmt.Errorf("bad triple count varint")
	}
	p = p[used:]
	if count > uint64(len(p)) {
		return SubOp{}, fmt.Errorf("triple count %d exceeds sub-op bytes", count)
	}
	if sub.Kind == KindReplace && count != 2 {
		return SubOp{}, fmt.Errorf("replace sub-op has %d triples, want 2", count)
	}
	sub.Triples = make([]rdf.Triple, 0, count)
	for i := uint64(0); i < count; i++ {
		n, used := binary.Uvarint(p)
		if used <= 0 {
			return SubOp{}, fmt.Errorf("bad triple length varint (triple %d)", i)
		}
		p = p[used:]
		if n > uint64(len(p)) {
			return SubOp{}, fmt.Errorf("triple %d claims %d bytes, %d remain", i, n, len(p))
		}
		t, err := parseTripleLine(string(p[:n]))
		if err != nil {
			return SubOp{}, fmt.Errorf("triple %d: %v", i, err)
		}
		sub.Triples = append(sub.Triples, t)
		p = p[n:]
	}
	if len(p) != 0 {
		return SubOp{}, fmt.Errorf("%d stray bytes after last triple", len(p))
	}
	return sub, nil
}

// parseTripleLine parses exactly one N-Triples statement.
func parseTripleLine(line string) (rdf.Triple, error) {
	r := ntriples.NewReader(strings.NewReader(line))
	t, err := r.Read()
	if err != nil {
		return rdf.Triple{}, err
	}
	if _, err := r.Read(); err != io.EOF {
		return rdf.Triple{}, fmt.Errorf("more than one statement in record item")
	}
	return t, nil
}
