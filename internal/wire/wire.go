// Package wire defines softdb's client/server wire protocol: a
// length-prefixed binary framing shared by internal/server and
// internal/client.
//
// Every frame is a 5-byte header — one type byte plus a big-endian uint32
// payload length — followed by the payload. Payloads are built from the
// primitives in internal/wire/codec: unsigned varints, zigzag varints, and
// uvarint-length-prefixed byte strings. Row data uses the codec's compact
// datum encoding (kind byte + value) covering every types.Kind; the same
// codec backs the write-ahead log and catalog snapshots so on-disk and
// on-the-wire row images are byte-identical.
//
// A request is one FrameQuery (SQL text, flags, an optional server-side
// timeout) or FrameSet (session-setting name/value). The response to a
// query is a sequence of frames terminated by FrameDone or FrameError:
//
//	FrameRowDesc?  FrameRowBatch*  FrameNotice*  (FrameDone | FrameError)
//
// FrameError carries the structured kind+op of an exec.QueryError, so a
// remote caller can classify canceled/timeout/oom/busy outcomes exactly
// like a local engine caller instead of parsing message strings.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"softdb/internal/exec"
	"softdb/internal/types"
	"softdb/internal/wire/codec"
)

// ProtoVersion is bumped whenever the frame layout changes incompatibly.
// The server sends it in FrameWelcome; clients refuse a mismatch.
const ProtoVersion = 1

// MaxFrame bounds a single frame's payload (64 MiB) so a corrupt or
// hostile length prefix cannot force an arbitrary allocation.
const MaxFrame = 64 << 20

// RowBatchSize is how many rows the server packs per FrameRowBatch.
const RowBatchSize = 256

// FrameType tags a frame. Client→server types live below 0x10,
// server→client types at 0x10 and above.
type FrameType byte

const (
	// FrameQuery carries one statement to execute (client → server).
	FrameQuery FrameType = 0x01
	// FrameSet carries a session-setting assignment (client → server).
	FrameSet FrameType = 0x02

	// FrameWelcome opens every connection (server → client): protocol
	// version and the session's label.
	FrameWelcome FrameType = 0x10
	// FrameRowDesc announces a result's column names.
	FrameRowDesc FrameType = 0x11
	// FrameRowBatch carries up to RowBatchSize result rows.
	FrameRowBatch FrameType = 0x12
	// FrameNotice carries one engine notice line.
	FrameNotice FrameType = 0x13
	// FrameError terminates a request with a structured error.
	FrameError FrameType = 0x14
	// FrameDone terminates a successful request.
	FrameDone FrameType = 0x15
	// FrameOK acknowledges a FrameSet.
	FrameOK FrameType = 0x16
)

// ErrFrameTooLarge reports a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")

// WriteFrame writes one frame. The caller owns buffering and flushing.
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, rejecting payloads beyond MaxFrame.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame payload: %w", err)
	}
	return FrameType(hdr[0]), payload, nil
}

// --- typed payloads ---

// Query is the FrameQuery payload: one statement plus per-request options.
type Query struct {
	// SQL is the statement text; it doubles as the server's plan-cache key.
	SQL string
	// TimeoutMillis, when nonzero, asks the server to apply a deadline of
	// this many milliseconds to the statement.
	TimeoutMillis uint64
	// Flags is reserved for future request options; the server ignores
	// unknown bits.
	Flags uint64
}

// AppendQuery encodes q onto b.
func AppendQuery(b []byte, q Query) []byte {
	b = codec.AppendUvarint(b, q.Flags)
	b = codec.AppendUvarint(b, q.TimeoutMillis)
	return codec.AppendString(b, q.SQL)
}

// ParseQuery decodes a FrameQuery payload.
func ParseQuery(payload []byte) (Query, error) {
	r := codec.NewDecoder(payload)
	q := Query{}
	q.Flags = r.Uvarint("query flags")
	q.TimeoutMillis = r.Uvarint("query timeout")
	q.SQL = r.String("query sql")
	return q, r.Err()
}

// Set is the FrameSet payload: a session-setting assignment.
type Set struct {
	Name  string
	Value string
}

// AppendSet encodes s onto b.
func AppendSet(b []byte, s Set) []byte {
	b = codec.AppendString(b, s.Name)
	return codec.AppendString(b, s.Value)
}

// ParseSet decodes a FrameSet payload.
func ParseSet(payload []byte) (Set, error) {
	r := codec.NewDecoder(payload)
	s := Set{Name: r.String("set name")}
	s.Value = r.String("set value")
	return s, r.Err()
}

// Welcome is the FrameWelcome payload.
type Welcome struct {
	// Proto is the server's ProtoVersion.
	Proto uint64
	// Session is the server-assigned session label (e.g. "conn-3"); it
	// tags the session's traces and log lines on the server.
	Session string
}

// AppendWelcome encodes w onto b.
func AppendWelcome(b []byte, w Welcome) []byte {
	b = codec.AppendUvarint(b, w.Proto)
	return codec.AppendString(b, w.Session)
}

// ParseWelcome decodes a FrameWelcome payload.
func ParseWelcome(payload []byte) (Welcome, error) {
	r := codec.NewDecoder(payload)
	w := Welcome{Proto: r.Uvarint("welcome proto")}
	w.Session = r.String("welcome session")
	return w, r.Err()
}

// AppendColumns encodes a FrameRowDesc payload.
func AppendColumns(b []byte, cols []string) []byte {
	b = codec.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = codec.AppendString(b, c)
	}
	return b
}

// ParseColumns decodes a FrameRowDesc payload.
func ParseColumns(payload []byte) ([]string, error) {
	r := codec.NewDecoder(payload)
	n := r.Uvarint("column count")
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n > uint64(len(payload)) { // each column costs >= 1 byte
		return nil, errors.New("wire: column count exceeds payload")
	}
	cols := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		cols = append(cols, r.String("column name"))
	}
	return cols, r.Err()
}

// AppendRows encodes a FrameRowBatch payload.
func AppendRows(b []byte, rows []types.Row) ([]byte, error) {
	b = codec.AppendUvarint(b, uint64(len(rows)))
	var err error
	for _, row := range rows {
		if b, err = codec.AppendRow(b, row); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// ParseRows decodes a FrameRowBatch payload, appending onto dst.
func ParseRows(dst []types.Row, payload []byte) ([]types.Row, error) {
	r := codec.NewDecoder(payload)
	n := r.Uvarint("row count")
	if err := r.Err(); err != nil {
		return dst, err
	}
	if n > uint64(len(payload)) { // each row costs >= 1 byte
		return dst, errors.New("wire: row count exceeds payload")
	}
	for i := uint64(0); i < n; i++ {
		row := r.Row("row")
		if err := r.Err(); err != nil {
			return dst, err
		}
		dst = append(dst, row)
	}
	return dst, nil
}

// Done is the FrameDone payload: the successful tail of a request.
type Done struct {
	// RowsAffected mirrors engine.Result.RowsAffected for DML.
	RowsAffected int64
}

// AppendDone encodes d onto b.
func AppendDone(b []byte, d Done) []byte {
	return codec.AppendVarint(b, d.RowsAffected)
}

// ParseDone decodes a FrameDone payload.
func ParseDone(payload []byte) (Done, error) {
	r := codec.NewDecoder(payload)
	d := Done{RowsAffected: r.Varint("done rows-affected")}
	return d, r.Err()
}

// Error is the structured error a FrameError carries — and the error value
// the client library returns, so remote callers switch on Kind exactly
// like local callers switch on exec.QueryError.Kind.
type Error struct {
	// Kind is the terminal state (the exec.ErrKind values, including
	// "busy" for load-shed rejections).
	Kind exec.ErrKind
	// Op is the operator or server boundary the error is attributed to.
	Op string
	// Msg is the rendered underlying error.
	Msg string
}

// Error implements error in the same shape exec.QueryError renders.
func (e *Error) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("query %s in [%s]: %s", e.Kind, e.Op, e.Msg)
	}
	return fmt.Sprintf("query %s: %s", e.Kind, e.Msg)
}

// ErrorFrom flattens any server-side error into its wire form: a
// *exec.QueryError keeps its kind and op, a *Error passes through
// unchanged (the shard router proxies shard errors to its own clients);
// everything else (parse errors, constraint violations, ...) travels as
// KindError.
func ErrorFrom(err error) *Error {
	var we *Error
	if errors.As(err, &we) {
		return we
	}
	if qe, ok := exec.AsQueryError(err); ok {
		return &Error{Kind: qe.Kind, Op: qe.Op, Msg: qe.Err.Error()}
	}
	return &Error{Kind: exec.KindError, Msg: err.Error()}
}

// WriteResponse streams one successful response sequence — RowDesc (when
// the result has columns), batched rows, notices, Done — onto w. It is the
// single encoder of the response grammar in the package comment. The
// caller owns buffering and flushing.
func WriteResponse(w io.Writer, cols []string, rows []types.Row, notices []string, rowsAffected int64) error {
	if len(cols) > 0 {
		if err := WriteFrame(w, FrameRowDesc, AppendColumns(nil, cols)); err != nil {
			return err
		}
		for off := 0; off < len(rows); off += RowBatchSize {
			end := min(off+RowBatchSize, len(rows))
			payload, err := AppendRows(nil, rows[off:end])
			if err != nil {
				// Encoding failure, not an I/O failure: the stream is still in
				// sync, so terminate the response with a structured error the
				// client can classify; the connection stays usable.
				return WriteFrame(w, FrameError, AppendError(nil, ErrorFrom(err)))
			}
			if err := WriteFrame(w, FrameRowBatch, payload); err != nil {
				return err
			}
		}
	}
	for _, n := range notices {
		if err := WriteFrame(w, FrameNotice, []byte(n)); err != nil {
			return err
		}
	}
	return WriteFrame(w, FrameDone, AppendDone(nil, Done{RowsAffected: rowsAffected}))
}

// AppendError encodes e onto b.
func AppendError(b []byte, e *Error) []byte {
	b = codec.AppendString(b, string(e.Kind))
	b = codec.AppendString(b, e.Op)
	return codec.AppendString(b, e.Msg)
}

// ParseError decodes a FrameError payload.
func ParseError(payload []byte) (*Error, error) {
	r := codec.NewDecoder(payload)
	e := &Error{Kind: exec.ErrKind(r.String("error kind"))}
	e.Op = r.String("error op")
	e.Msg = r.String("error msg")
	return e, r.Err()
}
