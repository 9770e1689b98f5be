// Package dist is the distributed sweep tier: a dispatcher that owns a
// study's cell queue and shards it over worker processes via TCP, with
// worker registration, heartbeats, retry-on-worker-loss, bounded
// result reordering and a resumable on-disk checkpoint journal.
//
// The unit of distribution is one (study, service) task: a worker
// executes the task through the same per-service study code the
// single-process drivers use (core.ChipStudy and friends), so the
// whole single-process stack — RunCells, the prep pipeline, the
// scalar-trace and batch-stream caches, sampled simulation — is reused
// and prep is amortised worker-locally. Per-service study rows are
// independent and deterministic, so the dispatcher's reassembled
// output is byte-identical to the single-process path regardless of
// worker count, worker loss or checkpoint resume.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
)

// ProtoVersion is the wire protocol revision. It participates in the
// schema hash, so any protocol change refuses to pair with older
// binaries.
const ProtoVersion = 1

// maxFrameBytes bounds a single frame; anything larger indicates a
// corrupt stream or a hostile peer.
const maxFrameBytes = 1 << 30

// msgKind tags a frame's payload type.
type msgKind uint8

const (
	kindHello   msgKind = 1 // worker -> dispatcher: registration
	kindWelcome msgKind = 2 // dispatcher -> worker: sweep spec + config
	kindReject  msgKind = 3 // dispatcher -> worker: handshake refused
	kindTask    msgKind = 4 // dispatcher -> worker: one task
	kindResult  msgKind = 5 // worker -> dispatcher: one task's result
	kindPing    msgKind = 6 // dispatcher -> worker: liveness probe
	kindPong    msgKind = 7 // worker -> dispatcher: liveness reply
	kindDone    msgKind = 8 // dispatcher -> worker: sweep finished, exit
)

// Hello is the worker's registration message. Schema must equal the
// dispatcher's SchemaHash — it digests the protocol version and the
// full reflected shape of every wire type, so binaries whose task or
// result layout drifted refuse to pair instead of silently
// mis-decoding.
type Hello struct {
	Proto  int
	Schema string
	Name   string
}

// Welcome carries the sweep definition to a registered worker.
type Welcome struct {
	Spec   SweepSpec
	Config SweepConfig
}

// Reject refuses a worker's registration.
type Reject struct {
	Reason string
}

// Ping is the dispatcher's liveness probe; Seq is echoed in the Pong.
type Ping struct {
	Seq int64
}

// Pong answers a Ping.
type Pong struct {
	Seq int64
}

// Done tells a worker the sweep is complete.
type Done struct{}

// writeFrame writes one length-prefixed frame: a big-endian uint32
// frame length (kind byte + payload), the kind byte, then the
// standalone-gob-encoded payload. Each frame uses a fresh gob stream
// so decoding never depends on connection history — a reconnecting
// worker starts clean.
func writeFrame(w io.Writer, kind msgKind, payload any) error {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0, byte(kind)})
	if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
		return fmt.Errorf("dist: encode %d: %w", kind, err)
	}
	b := buf.Bytes()
	if len(b)-4 > maxFrameBytes {
		return fmt.Errorf("dist: frame too large (%d bytes)", len(b)-4)
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// encodeFrame renders the frame writeFrame would send, for callers
// that need the raw bytes (fault injection writes a truncated prefix).
func encodeFrame(kind msgKind, payload any) ([]byte, error) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, kind, payload); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readFrame reads one frame and returns its kind and raw gob payload.
func readFrame(r io.Reader) (msgKind, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < 1 || n > maxFrameBytes {
		return 0, nil, fmt.Errorf("dist: bad frame length %d", n)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return msgKind(hdr[4]), payload, nil
}

// decodePayload decodes a frame payload into v.
func decodePayload(payload []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(payload)).Decode(v)
}

// SchemaHash digests the wire protocol: the protocol version plus a
// canonical reflected description of every message type (struct field
// names, order and types, walked transitively). Two binaries agree on
// the hash exactly when their wire types are structurally identical,
// so a dispatcher refuses workers built from a revision whose Result
// layout (or any nested stat struct) changed shape.
func SchemaHash() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "proto=%d;", ProtoVersion)
	seen := map[reflect.Type]bool{}
	for _, v := range []any{
		Hello{}, Welcome{}, Reject{}, Ping{}, Pong{}, Done{},
		Task{}, TaskResult{},
	} {
		describeType(&sb, reflect.TypeOf(v), seen)
		sb.WriteByte(';')
	}
	sum := sha256.Sum256([]byte(sb.String()))
	return hex.EncodeToString(sum[:8])
}

// describeType appends a canonical structural description of t. Named
// types already described are emitted as back references so recursive
// types terminate.
func describeType(sb *strings.Builder, t reflect.Type, seen map[reflect.Type]bool) {
	name := t.String()
	switch t.Kind() {
	case reflect.Pointer:
		sb.WriteString("*")
		describeType(sb, t.Elem(), seen)
	case reflect.Slice:
		sb.WriteString("[]")
		describeType(sb, t.Elem(), seen)
	case reflect.Array:
		fmt.Fprintf(sb, "[%d]", t.Len())
		describeType(sb, t.Elem(), seen)
	case reflect.Map:
		sb.WriteString("map[")
		describeType(sb, t.Key(), seen)
		sb.WriteString("]")
		describeType(sb, t.Elem(), seen)
	case reflect.Struct:
		if seen[t] {
			fmt.Fprintf(sb, "ref(%s)", name)
			return
		}
		seen[t] = true
		fmt.Fprintf(sb, "%s{", name)
		// Gob transmits exported fields only; unexported fields with
		// custom codecs (stats.Sample) are covered by naming the type.
		fields := make([]string, 0, t.NumField())
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			var fb strings.Builder
			describeType(&fb, f.Type, seen)
			fields = append(fields, f.Name+":"+fb.String())
		}
		// Gob matches fields by name, not position: sort so reordered
		// but otherwise identical structs keep the same hash.
		sort.Strings(fields)
		sb.WriteString(strings.Join(fields, ","))
		sb.WriteString("}")
	default:
		sb.WriteString(t.Kind().String())
	}
}
