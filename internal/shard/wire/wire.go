// Package wire is the binary shard transport: a compact, versioned,
// length-prefixed frame stream carrying one run of engine.VehicleReports
// per frame, terminated by a trailer frame that echoes the shard's range
// and error text.
//
// Frames are written as vehicles complete and decoded as they arrive, so
// neither side ever holds a whole shard's report set. The encoding is
// structural binary: zigzag varints for ints, unsigned varints for uint64s
// and lengths, raw IEEE-754 bits for float64s, length-prefixed UTF-8 for
// strings, nested structs (attack.RegimeSummary, Groups, Health) encoded
// field by field in declaration order.
//
// # Stream grammar
//
//	stream  := header frame* trailer
//	header  := magic(4) version(uvarint)
//	frame   := length(uvarint) payload(length) crc32(4, LE, IEEE of payload)
//	payload := kind(1) body
//	kind    := 0x01 (vehicle) | 0x02 (trailer)
//	body    := Index count matrix FramesDelivered … Health (vehicle)
//	         | Start Count Err                          (trailer)
//	count   := uvarint ≥ 1
//	matrix  := 0x00 Groups (inline)
//	         | 0x01        (back-reference)
//
// A vehicle frame stands for the run of count vehicles Index …
// Index+count−1 (see engine.Aggregate): the first is the report the frame
// spells out, and the rest differ from it only in Index. A vehicle's VIN,
// seed and per-regime totals are not sent: engine.FleetReport derives them
// from Index, the fleet's root seed and Groups. A fully stamped shard
// therefore sends two vehicle frames: its first vehicle and one run of the
// rest. A count of zero, or one that carries Index+count past the largest
// int, is corruption. Reader.NextRun returns a run whole; Reader.Next
// hands it out vehicle by vehicle.
//
// A back-reference means the vehicle's Groups equal the last inline matrix
// of the same stream. The Writer sends one whenever a vehicle's encoded
// matrix bytes equal the last matrix it sent inline — a decision by
// content, so it holds whether or not the caller's slices are shared —
// and the Reader decodes an inline matrix once and hands every
// back-referencing vehicle the same read-only slices. A stamped
// run's vehicles all carry its first vehicle's matrix, so a shard stream
// of one sends it once. A stream's first vehicle frame is always inline;
// a back-reference before any inline matrix, or any other tag value, is
// corruption.
//
// Every frame carries a CRC32 of its payload, verified before any
// structural decode: a corrupted pipe surfaces as a typed
// ErrFrameChecksum the shard driver records like any other shard failure
// (the PR 7 containment stance — a bad shard becomes a quarantine record,
// not a silently mis-merged report). Framing anomalies — truncation, an
// oversized length, bytes after the trailer, a missing trailer — wrap the
// same sentinel, so "any flipped byte errors out" holds across the whole
// stream, not just payload bytes.
//
// # Versioning
//
// The header's version is a single uvarint, bumped on any change to the
// frame grammar or the field layout of either payload kind. Readers reject
// versions they do not speak with ErrVersion (no in-band negotiation: the
// parent spawns the children from the same binary, and a remote shard host
// pins its protocol version in its handshake). Fields are not tagged — the
// encoding is positional, which is what makes it ~10x smaller than JSON —
// so schema evolution always bumps the version.
//
//   - v1: one complete vehicle report per vehicle frame.
//   - v2: the matrix tag after Seed; repeated matrices travel as
//     back-references.
//   - v3: the run after Seed; a vehicle frame stands for a run of
//     vehicles that differ only in VIN and Seed.
//   - v4: VIN, Seed, the run's root and Attacks leave the payload; the
//     count follows Index, and the run's vehicles differ only in Index.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/engine"
)

// Version is the protocol version this package speaks. Bumped on any
// change to the stream grammar or payload layout.
const Version = 4

// schemas pins, per protocol version, a fingerprint of the struct layout
// that version encodes positionally: the field names, types and order of
// engine.VehicleReport, attack.RegimeSummary, attack.Summary and
// engine.Health. Append-only — a layout change fails TestSchemaFingerprint
// until Version is bumped and the new fingerprint pinned under it.
var schemas = map[int]string{
	1: "ed64c7a3270cb79aa0383e4a95266ae2dfe66870ea1877f860c63bc02bfbb731",
	2: "ed64c7a3270cb79aa0383e4a95266ae2dfe66870ea1877f860c63bc02bfbb731",
	3: "ed64c7a3270cb79aa0383e4a95266ae2dfe66870ea1877f860c63bc02bfbb731",
	4: "8a3c0067d39b9aea88f5c64154dee034ecd8b92f3557eda1963cc354beccef7e",
}

// magic opens every stream: "CSW1" (carsim shard wire). Distinguishes a
// binary stream from a JSON document ('{') at the first byte.
var magic = [4]byte{'C', 'S', 'W', 0x01}

// Frame payload kinds.
const (
	kindVehicle = 0x01
	kindTrailer = 0x02
)

// Matrix tags: the byte after a vehicle payload's count.
const (
	matrixInline = 0x00 // Groups follow
	matrixRepeat = 0x01 // Groups equal the stream's last inline matrix
)

// maxFrame bounds a frame's declared payload length (64 MiB). A real
// vehicle report encodes in well under a kilobyte; anything near the cap
// is a corrupted length prefix, rejected before allocation.
const maxFrame = 1 << 26

// Typed stream errors.
var (
	// ErrBadMagic reports a stream that does not open with the wire magic
	// (e.g. a JSON document piped into a binary reader).
	ErrBadMagic = errors.New("wire: bad stream magic")
	// ErrVersion reports a stream speaking a protocol version this reader
	// does not.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrFrameChecksum reports a corrupted stream: a frame whose CRC32
	// does not match its payload, or any framing anomaly that is
	// indistinguishable from corruption (truncation, an oversized or
	// malformed length prefix, a malformed payload, bytes after the
	// trailer, a stream that ends without one).
	ErrFrameChecksum = errors.New("wire: frame checksum/framing violation")
)

// Trailer is the final frame of a shard stream: the range echo the parent
// asserts against, and the shard's sweep error text ("" on success). Plain
// ints rather than shard.Range so the shard package can depend on wire
// without a cycle.
type Trailer struct {
	// Start and Count echo the shard's index slice.
	Start int
	Count int
	// Err carries the shard's sweep error text ("" on success): a shard
	// that hits an unrecoverable cell still ships its partial vehicles,
	// then reports the failure here.
	Err string
}

// Writer encodes a shard stream. The header is written lazily on the
// first frame so constructing a Writer is free; WriteTrailer ends the
// stream (and flushes), after which the Writer must not be used.
type Writer struct {
	w      *bufio.Writer
	wrote  bool
	buf    []byte // frame payload scratch, reused across frames
	prefix []byte // length-prefix scratch
	// mat is the current vehicle's inline-tagged matrix encoding; last is
	// the one the stream last sent inline. The two buffers swap when a
	// matrix goes inline, so neither is reallocated once warm.
	mat, last []byte
}

// NewWriter returns a Writer emitting the stream to out.
func NewWriter(out io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(out, 1<<16)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	if _, err := w.w.Write(magic[:]); err != nil {
		return err
	}
	var v [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(v[:], Version)
	_, err := w.w.Write(v[:n])
	return err
}

// frame writes one length-prefixed, CRC-trailed frame around the payload
// currently in w.buf. The CRC is appended to w.buf: a local array would
// escape through the buffered writer and cost an allocation per frame.
func (w *Writer) frame() error {
	if err := w.header(); err != nil {
		return err
	}
	w.prefix = binary.AppendUvarint(w.prefix[:0], uint64(len(w.buf)))
	if _, err := w.w.Write(w.prefix); err != nil {
		return err
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf))
	_, err := w.w.Write(w.buf)
	return err
}

// WriteVehicle emits one vehicle frame: a run of one.
func (w *Writer) WriteVehicle(v *engine.VehicleReport) error { return w.WriteRun(v, 1) }

// WriteRun emits one vehicle frame standing for the run of n >= 1
// vehicles v heads: v.Index … v.Index+n-1, which differ from v only in
// Index. Its matrix goes as a back-reference when its encoding equals the
// last one this stream sent inline. An encoded matrix is never empty, so
// the first goes inline.
func (w *Writer) WriteRun(v *engine.VehicleReport, n int) error {
	if n < 1 {
		return fmt.Errorf("wire: run of %d vehicles", n)
	}
	w.mat = appendMatrix(append(w.mat[:0], matrixInline), v)
	mat := w.mat
	if bytes.Equal(mat, w.last) {
		mat = []byte{matrixRepeat}
	} else {
		w.last, w.mat = w.mat, w.last
	}
	w.buf = appendVehicle(append(w.buf[:0], kindVehicle), v, n, mat)
	return w.frame()
}

// WriteTrailer emits the trailer frame and flushes the stream.
func (w *Writer) WriteTrailer(t Trailer) error {
	w.buf = append(w.buf[:0], kindTrailer)
	w.buf = appendInt(w.buf, t.Start)
	w.buf = appendInt(w.buf, t.Count)
	w.buf = appendString(w.buf, t.Err)
	if err := w.frame(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader decodes a shard stream incrementally: NextRun returns one run of
// vehicles at a time, Next one vehicle, and both return io.EOF once the
// trailer frame has been consumed; Trailer then returns it. Any corruption
// or framing anomaly surfaces as an error wrapping ErrFrameChecksum (or
// ErrBadMagic/ErrVersion at the header).
type Reader struct {
	r       *bufio.Reader
	started bool
	done    bool
	trailer Trailer
	err     error
	buf     []byte // frame payload scratch, reused across frames
	last    matrix // the stream's last inline matrix
	// head is the vehicle of the run Next handed out last; left of the
	// run's vehicles are still to come, from index head.Index+1.
	head engine.VehicleReport
	left int
}

// NewReader returns a Reader decoding the stream from in.
func NewReader(in io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(in, 1<<16)}
}

func (r *Reader) header() error {
	if r.started {
		return nil
	}
	r.started = true
	var m [4]byte
	if _, err := io.ReadFull(r.r, m[:]); err != nil {
		return fmt.Errorf("%w: reading magic: %v", ErrBadMagic, err)
	}
	if m != magic {
		return fmt.Errorf("%w: got %q", ErrBadMagic, m[:])
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		return fmt.Errorf("%w: reading version: %v", ErrVersion, err)
	}
	if v != Version {
		return fmt.Errorf("%w: stream speaks v%d, reader speaks v%d", ErrVersion, v, Version)
	}
	return nil
}

// readFrame reads one frame into r.buf (payload only), verifying the CRC
// before returning. Every failure mode wraps ErrFrameChecksum except a
// clean EOF exactly at a frame boundary, which returns io.EOF.
func (r *Reader) readFrame() error {
	n, err := binary.ReadUvarint(r.r)
	if err != nil {
		if err == io.EOF {
			return io.EOF // clean boundary; caller decides if a trailer was seen
		}
		return fmt.Errorf("%w: frame length: %v", ErrFrameChecksum, err)
	}
	if n == 0 || n > maxFrame {
		return fmt.Errorf("%w: frame length %d out of range", ErrFrameChecksum, n)
	}
	// The CRC is read into the scratch buffer's tail: a local array would
	// escape through io.ReadFull and cost an allocation per frame.
	if cap(r.buf) < int(n)+4 {
		r.buf = make([]byte, n+4)
	}
	r.buf = r.buf[:n+4]
	crc := r.buf[n:]
	if _, err := io.ReadFull(r.r, r.buf[:n]); err != nil {
		return fmt.Errorf("%w: frame payload: %v", ErrFrameChecksum, err)
	}
	if _, err := io.ReadFull(r.r, crc); err != nil {
		return fmt.Errorf("%w: frame crc: %v", ErrFrameChecksum, err)
	}
	r.buf = r.buf[:n]
	if got, want := crc32.ChecksumIEEE(r.buf), binary.LittleEndian.Uint32(crc); got != want {
		return fmt.Errorf("%w: crc %08x, frame claims %08x", ErrFrameChecksum, got, want)
	}
	return nil
}

// Next returns the next vehicle report, or io.EOF after the trailer frame
// has been consumed: a run frame's vehicles one by one, each in a report
// of its own. A Reader that has returned an error keeps returning it.
func (r *Reader) Next() (*engine.VehicleReport, error) {
	if r.left > 0 {
		r.left--
		return r.member(), nil
	}
	v, n, err := r.readRun()
	if n > 1 {
		r.head, r.left = *v, n-1
	}
	return v, err
}

// NextRun returns the next run of vehicles whole — v stands for the n >= 1
// vehicles v.Index … v.Index+n-1, which differ from v only in Index — or
// io.EOF after the trailer frame has been consumed. After Next has handed
// out part of a run, NextRun returns the rest of it. A Reader that has
// returned an error keeps returning it.
func (r *Reader) NextRun() (*engine.VehicleReport, int, error) {
	if n := r.left; n > 0 {
		r.left = 0
		return r.member(), n, nil
	}
	return r.readRun()
}

// member returns the report of the next vehicle of the run Next is
// handing out.
func (r *Reader) member() *engine.VehicleReport {
	r.head.Index++
	m := r.head
	return &m
}

// readRun decodes the next frame: a vehicle frame as a run, the trailer
// as io.EOF.
func (r *Reader) readRun() (*engine.VehicleReport, int, error) {
	if r.err != nil {
		return nil, 0, r.err
	}
	if r.done {
		return nil, 0, io.EOF
	}
	if err := r.header(); err != nil {
		r.err = err
		return nil, 0, err
	}
	if err := r.readFrame(); err != nil {
		if err == io.EOF {
			// Stream ended without a trailer: truncation.
			err = fmt.Errorf("%w: stream ended before trailer frame", ErrFrameChecksum)
		}
		r.err = err
		return nil, 0, err
	}
	d := dec{b: r.buf}
	kind := d.byte()
	switch kind {
	case kindVehicle:
		var v engine.VehicleReport
		n := decodeVehicle(&d, &v, &r.last)
		if d.err != nil || len(d.b) != 0 {
			r.err = fmt.Errorf("%w: malformed vehicle payload", ErrFrameChecksum)
			return nil, 0, r.err
		}
		return &v, n, nil
	case kindTrailer:
		r.trailer.Start = d.int()
		r.trailer.Count = d.int()
		r.trailer.Err = d.string()
		if d.err != nil || len(d.b) != 0 {
			r.err = fmt.Errorf("%w: malformed trailer payload", ErrFrameChecksum)
			return nil, 0, r.err
		}
		// Nothing may follow the trailer.
		if _, err := r.r.ReadByte(); err != io.EOF {
			r.err = fmt.Errorf("%w: bytes after trailer frame", ErrFrameChecksum)
			return nil, 0, r.err
		}
		r.done = true
		return nil, 0, io.EOF
	default:
		r.err = fmt.Errorf("%w: unknown frame kind %#x", ErrFrameChecksum, kind)
		return nil, 0, r.err
	}
}

// Trailer returns the stream trailer. Valid only after Next has returned
// io.EOF.
func (r *Reader) Trailer() (Trailer, error) {
	if r.err != nil {
		return Trailer{}, r.err
	}
	if !r.done {
		return Trailer{}, fmt.Errorf("%w: trailer requested before stream end", ErrFrameChecksum)
	}
	return r.trailer, nil
}

// --- primitive encoding -------------------------------------------------
//
// Zigzag varints for signed ints, unsigned varints for uint64s and
// lengths, fixed 8-byte little-endian IEEE-754 bits for float64s,
// uvarint-length-prefixed bytes for strings.

func appendInt(b []byte, v int) []byte     { return binary.AppendVarint(b, int64(v)) }
func appendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendFloat(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// dec is a bounds-checked cursor over one frame payload. Every accessor
// no-ops after the first error, so decode code reads straight through and
// checks d.err once; a malformed payload can never panic (the fuzz
// harness's contract).
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = errors.New("wire: truncated payload")
	}
}

func (d *dec) byte() byte {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) uint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *dec) float() float64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) string() string {
	n := d.uint()
	if d.err != nil || uint64(len(d.b)) < n {
		d.fail()
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// sliceLen validates a declared element count against the bytes left in
// the payload: every element costs at least min bytes, so a count that
// could not possibly fit is a corrupt length, rejected before allocation.
func (d *dec) sliceLen(min int) int {
	n := d.uint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)/min)+1 {
		d.fail()
		return 0
	}
	return int(n)
}

// --- struct encoding ----------------------------------------------------
//
// Fields in declaration order; slices as uvarint count + elements. Any
// field added, removed or reordered in these structs bumps Version.

func appendSummary(b []byte, s *attack.Summary) []byte {
	b = appendInt(b, s.Runs)
	b = appendInt(b, s.Succeeded)
	b = appendInt(b, s.Blocked)
	b = appendInt(b, s.FalsePositives)
	b = appendInt(b, s.Injected)
	b = appendUint(b, s.WriteBlocked)
	b = appendUint(b, s.ReadBlocked)
	b = appendInt(b, s.StageRuns)
	b = appendInt(b, s.StagesHalted)
	return b
}

func decodeSummary(d *dec, s *attack.Summary) {
	s.Runs = d.int()
	s.Succeeded = d.int()
	s.Blocked = d.int()
	s.FalsePositives = d.int()
	s.Injected = d.int()
	s.WriteBlocked = d.uint()
	s.ReadBlocked = d.uint()
	s.StageRuns = d.int()
	s.StagesHalted = d.int()
}

func appendRegimes(b []byte, rs []attack.RegimeSummary) []byte {
	b = appendUint(b, uint64(len(rs)))
	for i := range rs {
		b = append(b, byte(rs[i].Regime))
		b = appendSummary(b, &rs[i].Summary)
	}
	return b
}

func decodeRegimes(d *dec) []attack.RegimeSummary {
	// A regime summary is ≥10 bytes (kind byte + 9 varints).
	n := d.sliceLen(10)
	if d.err != nil || n == 0 {
		return nil
	}
	rs := make([]attack.RegimeSummary, n)
	for i := range rs {
		rs[i].Regime = attack.Enforcement(d.byte())
		decodeSummary(d, &rs[i].Summary)
	}
	return rs
}

func appendHealth(b []byte, h *engine.Health) []byte {
	b = appendInt(b, h.Quarantines)
	b = appendInt(b, h.PanicRecoveries)
	b = appendInt(b, h.IntegrityFailures)
	b = appendInt(b, h.DeadlineOverruns)
	b = appendInt(b, h.NotQuiescent)
	b = appendInt(b, h.CrashRecoveries)
	b = appendInt(b, h.Retries)
	b = appendInt(b, int(h.Backoff))
	b = appendInt(b, h.CellDemotions)
	b = appendInt(b, h.VehicleDemotions)
	b = appendInt(b, h.VerifySamples)
	b = appendInt(b, h.VerifyMismatches)
	b = appendInt(b, h.Unrecoverable)
	return b
}

func decodeHealth(d *dec, h *engine.Health) {
	h.Quarantines = d.int()
	h.PanicRecoveries = d.int()
	h.IntegrityFailures = d.int()
	h.DeadlineOverruns = d.int()
	h.NotQuiescent = d.int()
	h.CrashRecoveries = d.int()
	h.Retries = d.int()
	h.Backoff = time.Duration(d.int())
	h.CellDemotions = d.int()
	h.VehicleDemotions = d.int()
	h.VerifySamples = d.int()
	h.VerifyMismatches = d.int()
	h.Unrecoverable = d.int()
}

// appendMatrix encodes a vehicle's Groups: the section a back-reference
// stands in for.
func appendMatrix(b []byte, v *engine.VehicleReport) []byte {
	b = appendUint(b, uint64(len(v.Groups)))
	for _, g := range v.Groups {
		b = appendRegimes(b, g)
	}
	return b
}

// matrix is a decoded Groups section. A Reader keeps its stream's last
// inline one and gives the same slices to every vehicle that
// back-references it.
type matrix struct {
	groups [][]attack.RegimeSummary
	seen   bool
}

func decodeMatrix(d *dec) matrix {
	m := matrix{seen: true}
	if n := d.sliceLen(1); d.err == nil && n > 0 {
		m.groups = make([][]attack.RegimeSummary, n)
		for i := range m.groups {
			m.groups[i] = decodeRegimes(d)
		}
	}
	return m
}

// appendVehicle encodes the payload of the run of n vehicles v heads
// around mat, its matrix section: the tag and, when inline, the
// appendMatrix encoding.
func appendVehicle(b []byte, v *engine.VehicleReport, n int, mat []byte) []byte {
	b = appendInt(b, v.Index)
	b = appendUint(b, uint64(n))
	b = append(b, mat...)
	b = appendUint(b, v.FramesDelivered)
	b = appendUint(b, v.BusErrors)
	b = appendUint(b, v.WriteBlocked)
	b = appendUint(b, v.ReadBlocked)
	b = appendUint(b, v.AbortedTx)
	b = appendFloat(b, v.Utilisation)
	b = appendUint(b, v.SchedulerSteps)
	b = appendInt(b, v.MACChecks)
	b = appendInt(b, v.MACAllowed)
	b = appendHealth(b, &v.Health)
	return b
}

// decodeVehicle decodes one vehicle payload into the first vehicle of its
// run and returns the run's count. last is the stream's last inline
// matrix, which an inline matrix replaces; a standalone payload passes nil
// and may not back-reference.
func decodeVehicle(d *dec, v *engine.VehicleReport, last *matrix) (n int) {
	v.Index = d.int()
	switch count := d.uint(); {
	case d.err != nil:
	case count == 0 || count > math.MaxInt || v.Index > math.MaxInt-int(count):
		d.err = fmt.Errorf("wire: run of %d vehicles from index %d", count, v.Index)
	default:
		n = int(count)
	}
	switch tag := d.byte(); {
	case tag == matrixInline:
		m := decodeMatrix(d)
		if last != nil {
			*last = m
		}
		v.Groups = m.groups
	case tag == matrixRepeat && last != nil && last.seen:
		v.Groups = last.groups
	default: // d.byte succeeded: a failed read returns 0, inline
		d.err = fmt.Errorf("wire: bad matrix tag %#x (want inline 0x00, or 0x01 after an inline matrix)", tag)
	}
	v.FramesDelivered = d.uint()
	v.BusErrors = d.uint()
	v.WriteBlocked = d.uint()
	v.ReadBlocked = d.uint()
	v.AbortedTx = d.uint()
	// The fleet fold sums utilisations exactly, so only finite ones pass.
	if v.Utilisation = d.float(); math.IsNaN(v.Utilisation) || math.IsInf(v.Utilisation, 0) {
		d.err = fmt.Errorf("%w: utilisation %v is not finite", ErrFrameChecksum, v.Utilisation)
	}
	v.SchedulerSteps = d.uint()
	v.MACChecks = d.int()
	v.MACAllowed = d.int()
	decodeHealth(d, &v.Health)
	return n
}
