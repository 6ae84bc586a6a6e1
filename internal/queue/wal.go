// Package queue is the campaign-as-a-service layer of the Harpocrates
// reproduction: a durable job coordinator (submit / status / result /
// cancel over the internal/dist v1 wire protocol) with work-stealing
// lease dispatch across heterogeneous pull-mode workers, and a
// content-addressed result cache — the job table itself, keyed by
// (program hash, config hash, fault-spec hash) — so no shard any job
// finished is ever simulated again.
//
// Persistence: every submit, shard completion and cancellation is
// appended to one crash-safe, append-only WAL, the coordinator's only
// durable file. Every start — after a graceful Close or a kill -9
// alike — rebuilds the whole job table by replaying it; no record is
// ever obsolete, because the table keeps every job for ever.
//
// Determinism: a job's merged result is assembled from shard results in
// shard-index order (inject.MergeStats for campaigns, positional
// concatenation for evaluation batches), shard bounds are fixed at
// submit time and persisted, and cache values are the byte-exact
// encoded results of an identical shard request — so queue-path
// results are bit-identical to single-process runs across worker
// death, coordinator restart and warm-cache replay alike.
package queue

import (
	"fmt"

	"harpocrates/internal/segstore"
)

// walFormat is the WAL container: an "HQWL" v1 header, then segstore
// frames whose 1-byte tag is the record kind. The payload bound is large
// because job submits carry whole program images. Replay stops at a torn
// tail or CRC mismatch and truncates there, so a coordinator killed
// mid-append restarts from a consistent prefix.
var walFormat = segstore.Format{TagSize: 1, Magic: 0x4851574c, Version: 1, MaxPayload: 256 << 20}

const walHeaderSize = segstore.HeaderSize

// Record is one replayed WAL entry.
type Record struct {
	Kind    byte
	Payload []byte
}

// WAL is an append-only, CRC-checked write-ahead log, safe for
// concurrent use. Besides Append it offers the embedded Log's Size
// (byte length, header included; 0 once closed), Sync and Close.
type WAL struct{ *segstore.Log }

// OpenWAL opens (creating if needed) the log at path and replays it,
// returning every intact record in append order. A torn or corrupt
// tail is truncated; a corrupt header is an error (the file is not a
// WAL — refusing to overwrite beats silently destroying foreign data).
func OpenWAL(path string) (*WAL, []Record, error) {
	var recs []Record
	log, err := segstore.Open(path, walFormat, func(tag []byte, _ int64, payload []byte) {
		recs = append(recs, Record{Kind: tag[0], Payload: payload})
	})
	if err != nil {
		return nil, nil, fmt.Errorf("queue: open wal: %w", err)
	}
	return &WAL{log}, recs, nil
}

// Append durably appends one record: the frame and payload go out in a
// single write followed by an fsync, so a record either replays intact
// or is truncated as a torn tail — never half-applied.
func (w *WAL) Append(kind byte, payload []byte) error {
	if err := w.append(kind, payload); err != nil {
		return err
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("queue: wal sync: %w", err)
	}
	return nil
}

// append writes one record without the fsync: the caller owes a Sync,
// which may cover several records (a submit's).
func (w *WAL) append(kind byte, payload []byte) error {
	return w.appendFrame(kind, append(walFormat.Frame(len(payload)), payload...))
}

// appendFrame is append for a record built in place in a
// walFormat.Frame: its payload is written without another copy.
func (w *WAL) appendFrame(kind byte, frame []byte) error {
	if _, err := w.Log.AppendFrame([]byte{kind}, frame); err != nil {
		return fmt.Errorf("queue: wal append: %w", err)
	}
	return nil
}
