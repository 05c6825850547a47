// Package wal implements softdb's write-ahead log and checkpoint files: a
// length-prefixed, CRC-checksummed redo log of row mutations, DDL text,
// and soft-constraint-registry images, plus the snapshot file a checkpoint
// writes.
//
// Framing: every record on disk is
//
//	[uvarint payloadLen] [4-byte big-endian CRC-32C of payload] [payload]
//
// and every payload is
//
//	[type byte] [uvarint LSN] [uvarint txnID] [type-specific body]
//
// built from the internal/wire/codec primitives, so a logged row image is
// byte-identical to the same row on the client wire. The CRC covers the
// payload only; a torn length prefix, a short payload, and a corrupt
// payload are all detected and classified as a torn tail by the reader.
//
// Durability protocol: an autocommit statement's records plus a TypeCommit
// terminator land as a single buffered write (group commit), fsync'd per
// the writer's SyncPolicy. Explicit transactions stream their statements'
// records (tagged with the transaction's ID) as they execute and close the
// group with a TypeCommit or TypeAbort carrying the same ID. Recovery
// buffers records per transaction ID and replays only groups closed by a
// commit record; aborted and unterminated groups are discarded, so a crash
// mid-transaction loses exactly the uncommitted work — never a committed
// prefix.
package wal

import (
	"fmt"
	"hash/crc32"

	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/wire/codec"
)

// Type tags a WAL record.
type Type byte

const (
	// TypeInsert logs one validated row appended to a table's heap.
	TypeInsert Type = 1
	// Type 2 is retired (UPDATE logs a delete plus an insert); the decoder
	// rejects it.

	// TypeDelete logs a tombstone at a RowID.
	TypeDelete Type = 3
	// TypeDDL logs a DDL/utility statement as SQL text plus whether it
	// succeeded pre-crash; replay re-executes it and must agree.
	TypeDDL Type = 4
	// TypeSoft logs a full image of the soft-constraint registry (the
	// catalog's mined/advisory state), emitted whenever the softc manager
	// mutates it outside a logged statement.
	TypeSoft Type = 5
	// TypeCommit closes a record group; recovery applies only closed groups.
	TypeCommit Type = 6
	// TypeTruncate logs a whole-table truncate (heap and indexes emptied).
	TypeTruncate Type = 7
	// TypeBegin marks the first write of an explicit transaction; purely
	// informational for log readers (recovery keys groups off record TxnIDs).
	TypeBegin Type = 8
	// TypeAbort closes a transaction's record group as rolled back; recovery
	// discards the group. Like TypeCommit it is a consistent boundary for
	// torn-tail truncation.
	TypeAbort Type = 9
)

// String names the record type.
func (t Type) String() string {
	switch t {
	case TypeInsert:
		return "insert"
	case TypeDelete:
		return "delete"
	case TypeDDL:
		return "ddl"
	case TypeSoft:
		return "soft"
	case TypeCommit:
		return "commit"
	case TypeTruncate:
		return "truncate"
	case TypeBegin:
		return "begin"
	case TypeAbort:
		return "abort"
	default:
		return fmt.Sprintf("Type(%d)", byte(t))
	}
}

// Record is one redo-log entry. Which fields are meaningful depends on
// Type; unused fields stay zero and are not encoded.
type Record struct {
	// LSN is the record's log sequence number, assigned by the Writer in
	// strictly increasing order across the log's lifetime (checkpoints do
	// not reset it).
	LSN uint64
	// Type selects the body layout.
	Type Type
	// TxnID tags the record with its explicit transaction, or 0 for
	// autocommit/utility record groups. Recovery buffers records per TxnID
	// and applies a group only when its TypeCommit arrives.
	TxnID int64
	// Table names the target table (Insert/Delete/Truncate).
	Table string
	// RID locates the row (Insert/Delete). For inserts it records
	// the slot the live process appended to, so replay reproduces the heap
	// layout exactly — gaps left by aborted transactions included.
	RID storage.RowID
	// Row is the inserted row (Insert).
	Row types.Row
	// SQL is the statement text (DDL).
	SQL string
	// Applied records whether the DDL statement succeeded pre-crash (DDL).
	Applied bool
	// Blob is the serialized soft-constraint registry (Soft).
	Blob []byte
}

// castagnoli is the CRC-32C table shared by records and snapshots.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendPayload encodes r's payload (type byte + LSN + body) onto b.
func appendPayload(b []byte, r *Record) ([]byte, error) {
	b = append(b, byte(r.Type))
	b = codec.AppendUvarint(b, r.LSN)
	b = codec.AppendUvarint(b, uint64(r.TxnID))
	var err error
	switch r.Type {
	case TypeInsert:
		b = codec.AppendString(b, r.Table)
		b = codec.AppendVarint(b, int64(r.RID.Page))
		b = codec.AppendVarint(b, int64(r.RID.Slot))
		if b, err = codec.AppendRow(b, r.Row); err != nil {
			return nil, err
		}
	case TypeDelete:
		b = codec.AppendString(b, r.Table)
		b = codec.AppendVarint(b, int64(r.RID.Page))
		b = codec.AppendVarint(b, int64(r.RID.Slot))
	case TypeDDL:
		b = codec.AppendString(b, r.SQL)
		b = codec.AppendBool(b, r.Applied)
	case TypeSoft:
		b = codec.AppendBytes(b, r.Blob)
	case TypeCommit, TypeBegin, TypeAbort:
	case TypeTruncate:
		b = codec.AppendString(b, r.Table)
	default:
		return nil, fmt.Errorf("wal: cannot encode record type %d", r.Type)
	}
	return b, nil
}

// AppendRecord encodes r with its frame (length prefix + CRC) onto b.
func AppendRecord(b []byte, r *Record) ([]byte, error) {
	payload, err := appendPayload(nil, r)
	if err != nil {
		return nil, err
	}
	b = codec.AppendUvarint(b, uint64(len(payload)))
	crc := crc32.Checksum(payload, castagnoli)
	b = append(b, byte(crc>>24), byte(crc>>16), byte(crc>>8), byte(crc))
	return append(b, payload...), nil
}

// DecodeRecord decodes a record payload (the bytes the frame CRC covers).
// It never panics on corrupt input; it returns an error instead.
func DecodeRecord(payload []byte) (*Record, error) {
	d := codec.NewDecoder(payload)
	r := &Record{Type: Type(d.Byte("record type"))}
	r.LSN = d.Uvarint("record lsn")
	r.TxnID = int64(d.Uvarint("record txn id"))
	switch r.Type {
	case TypeInsert, TypeDelete:
		r.Table = d.String("row table")
		page, slot := d.Varint("row page"), d.Varint("row slot")
		r.RID = storage.RowID{Page: int32(page), Slot: int32(slot)}
		if int64(r.RID.Page) != page || int64(r.RID.Slot) != slot {
			return nil, fmt.Errorf("wal: %s record row id %d:%d out of range", r.Type, page, slot)
		}
		if r.Type == TypeInsert {
			r.Row = d.Row("insert row")
		}
	case TypeDDL:
		r.SQL = d.String("ddl sql")
		r.Applied = d.Bool("ddl applied")
	case TypeSoft:
		r.Blob = d.Bytes("soft blob")
	case TypeCommit, TypeBegin, TypeAbort:
	case TypeTruncate:
		r.Table = d.String("truncate table")
	default:
		return nil, fmt.Errorf("wal: unknown record type %d", byte(r.Type))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after %s record", d.Len(), r.Type)
	}
	return r, nil
}
