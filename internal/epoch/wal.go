package epoch

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Write-ahead log: one append-only segment file. Every ingest becomes one
// record, written and fsynced before the epoch it creates is published, so
// a published epoch is always recoverable. The record framing carries a
// per-record CRC over both header fields and payload; recovery replays
// records in order and, at the first torn or corrupt record, truncates the
// segment there instead of failing — an interrupted append (torn page,
// lost unsynced tail) costs exactly the unpublished suffix, never the log.
//
// Rotation keeps one previous segment (wal.prev): the records between the
// older and the newer retained checkpoint, which a fallback from a damaged
// newest checkpoint must replay.
//
// Layout:
//
//	file   := fileHeader record*
//	header := magic "MOAWAL1\n" | metaLen uint32 | meta
//	record := recMagic uint32 | epoch uint64 | payloadLen uint32 |
//	          crc32c(epoch ‖ payloadLen ‖ payload) uint32 | payload
//
// meta is an opaque caller blob (the tpcd store encodes scale factor and
// generator seed); Open refuses a WAL whose meta does not match the
// caller's, so a data directory cannot silently be replayed against the
// wrong genesis.

const (
	walFileMagic = "MOAWAL1\n"
	walRecMagic  = uint32(0x4d42554e) // "MBUN"
	walRecHdrLen = 4 + 8 + 4 + 4
	walName      = "wal.log"
	walPrevName  = "wal.prev"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walRecord is one replayed WAL record.
type walRecord struct {
	Epoch   uint64
	Payload []byte
}

// wal is an open write-ahead log segment.
//
// Appends are two-phase for group commit: write() frames and writes the
// record bytes (caller serializes writes in epoch order), then syncTo()
// makes an offset durable. syncTo elects a leader — the first caller to
// find no fsync in flight — which syncs the file once for every byte
// written so far; callers whose offset that sync (or a previous one)
// already covered return without issuing their own fsync. That is the
// group commit: N concurrent ingests racing a slow fsync coalesce into
// one, and the durability contract ("publish only after the record is on
// disk") is untouched because every ingest still blocks until its own
// offset is durable.
type wal struct {
	f    *os.File
	path string
	// size is the bytes fully written (header + records), not all durable.
	// Writers advance it under the store's append lock; a group-commit
	// leader reads it under syncMu, hence atomic.
	size  atomic.Int64
	hooks *Hooks

	syncMu   sync.Mutex
	syncCond *sync.Cond
	synced   int64 // bytes known durable (≤ size)
	syncing  bool  // a leader's fsync is in flight
	syncErr  error // sticky: a failed fsync poisons the segment
}

func (w *wal) initSync() {
	w.syncCond = sync.NewCond(&w.syncMu)
	w.synced = w.size.Load()
}

func walPath(dir string) string { return filepath.Join(dir, walName) }

// createWAL writes a fresh empty segment (header only) and fsyncs it and
// its directory.
func createWAL(dir string, meta []byte) (*wal, error) {
	path := walPath(dir)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := walHeader(meta)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	w := &wal{f: f, path: path}
	w.size.Store(int64(len(hdr)))
	w.initSync()
	return w, nil
}

// openWAL opens an existing segment, verifies the header and meta, replays
// every valid record, and truncates a torn or corrupt tail in place. It
// returns the replayed records in append order.
func openWAL(dir string, meta []byte) (*wal, []walRecord, error) {
	path := walPath(dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	hdrLen, err := checkWALHeader(data, meta)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal %s: %w", path, err)
	}

	recs, good := replayWAL(data[hdrLen:])
	goodSize := int64(hdrLen) + good
	if goodSize < int64(len(data)) {
		// Torn or corrupt tail: drop it. The lost suffix was never
		// acknowledged as published (publish happens only after fsync
		// returns), so truncation restores exactly the last durable state.
		if err := f.Truncate(goodSize); err != nil {
			f.Close()
			return nil, nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if _, err := f.Seek(goodSize, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	w := &wal{f: f, path: path}
	w.size.Store(goodSize)
	w.initSync()
	return w, recs, nil
}

// readPrevWAL returns the records of the previous segment, or none when
// there is none. Rotation happens only once every record is durable, so the
// segment's valid prefix is all it ever held; it is never written again.
func readPrevWAL(dir string, meta []byte) ([]walRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, walPrevName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	hdrLen, err := checkWALHeader(data, meta)
	if err != nil {
		return nil, fmt.Errorf("wal %s: %w", walPrevName, err)
	}
	recs, _ := replayWAL(data[hdrLen:])
	return recs, nil
}

func walHeader(meta []byte) []byte {
	hdr := make([]byte, 0, len(walFileMagic)+4+len(meta))
	hdr = append(hdr, walFileMagic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(meta)))
	return append(hdr, meta...)
}

func checkWALHeader(data, meta []byte) (int, error) {
	if len(data) < len(walFileMagic)+4 {
		return 0, fmt.Errorf("truncated header (%d bytes)", len(data))
	}
	if string(data[:len(walFileMagic)]) != walFileMagic {
		return 0, fmt.Errorf("bad magic")
	}
	metaLen := int(binary.LittleEndian.Uint32(data[len(walFileMagic):]))
	hdrLen := len(walFileMagic) + 4 + metaLen
	if len(data) < hdrLen {
		return 0, fmt.Errorf("truncated meta (%d of %d bytes)", len(data)-len(walFileMagic)-4, metaLen)
	}
	if got := data[len(walFileMagic)+4 : hdrLen]; string(got) != string(meta) {
		return 0, fmt.Errorf("meta mismatch: log %q, store %q — refusing to replay against the wrong genesis", got, meta)
	}
	return hdrLen, nil
}

// replayWAL walks the record region and returns every valid record plus the
// byte length of the valid prefix. Scanning stops at the first record that
// is short, has a bad magic, or fails its CRC — everything after a corrupt
// record is unreachable (framing is sequential), which is exactly the
// truncate-the-tail contract.
func replayWAL(data []byte) ([]walRecord, int64) {
	var recs []walRecord
	off := 0
	for {
		if len(data)-off < walRecHdrLen {
			return recs, int64(off)
		}
		hdr := data[off : off+walRecHdrLen]
		if binary.LittleEndian.Uint32(hdr[0:4]) != walRecMagic {
			return recs, int64(off)
		}
		epoch := binary.LittleEndian.Uint64(hdr[4:12])
		plen := int(binary.LittleEndian.Uint32(hdr[12:16]))
		sum := binary.LittleEndian.Uint32(hdr[16:20])
		if len(data)-off-walRecHdrLen < plen {
			return recs, int64(off) // torn payload
		}
		payload := data[off+walRecHdrLen : off+walRecHdrLen+plen]
		if recCRC(epoch, payload) != sum {
			return recs, int64(off)
		}
		recs = append(recs, walRecord{Epoch: epoch, Payload: append([]byte(nil), payload...)})
		off += walRecHdrLen + plen
	}
}

func recCRC(epoch uint64, payload []byte) uint32 {
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[0:8], epoch)
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, hdr[:])
	return crc32.Update(crc, castagnoli, payload)
}

// write frames and writes one record WITHOUT syncing, returning the end
// offset the caller must pass to syncTo before publishing. Callers
// serialize writes (the store's append lock), so records land in epoch
// order.
func (w *wal) write(epoch uint64, payload []byte) (int64, error) {
	rec := make([]byte, 0, walRecHdrLen+len(payload))
	rec = binary.LittleEndian.AppendUint32(rec, walRecMagic)
	rec = binary.LittleEndian.AppendUint64(rec, epoch)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, recCRC(epoch, payload))
	rec = append(rec, payload...)
	if _, err := w.f.Write(rec); err != nil {
		return 0, err
	}
	return w.size.Add(int64(len(rec))), nil
}

// syncTo blocks until bytes [0, target) are durable. led reports whether
// this caller issued the fsync (the group-commit leader); a false return
// with nil error means some other caller's fsync covered target — a
// coalesced commit. The crash hooks fire in the leader only, in the same
// written-but-not-durable / durable-but-not-applied positions the serial
// protocol had.
func (w *wal) syncTo(target int64) (led bool, err error) {
	w.syncMu.Lock()
	for {
		if w.syncErr != nil {
			err := w.syncErr
			w.syncMu.Unlock()
			return false, err
		}
		if w.synced >= target {
			w.syncMu.Unlock()
			return false, nil
		}
		if !w.syncing {
			break
		}
		w.syncCond.Wait()
	}
	w.syncing = true
	goal := w.size.Load() // covers every record written so far, not just ours
	w.syncMu.Unlock()

	w.hooks.At("wal:append:before-sync")
	serr := w.f.Sync()

	w.syncMu.Lock()
	w.syncing = false
	if serr != nil {
		w.syncErr = serr
	} else if goal > w.synced {
		w.synced = goal
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
	if serr != nil {
		return true, serr
	}
	w.hooks.At("wal:append:after-sync")
	return true, nil
}

// rotate starts a fresh empty segment and keeps the current one as the
// previous segment (write temp → fsync → rename current to wal.prev →
// rename temp to current → dir fsync), dropping the segment before it.
// Called after a checkpoint covered every record the segment holds; a
// crash anywhere in the sequence leaves the records in wal.log or wal.prev
// (records ≤ a checkpoint's epoch are skipped on replay) — never a
// half-truncated log. A crash between the renames leaves no wal.log, which
// Open recreates.
func (w *wal) rotate(dir string, meta []byte) error {
	tmpPath := walPath(dir) + ".tmp"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	hdr := walHeader(meta)
	if _, err := tmp.Write(hdr); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(w.path, filepath.Join(dir, walPrevName)); err != nil {
		tmp.Close()
		return err
	}
	if err := os.Rename(tmpPath, w.path); err != nil {
		tmp.Close()
		return err
	}
	if err := syncDir(dir); err != nil {
		tmp.Close()
		return err
	}
	// Swap the fd under the sync lock — and after any in-flight leader
	// fsync drains — so a group-commit leader can never fsync a closed
	// descriptor. The store guarantees no unsynced record bytes exist at
	// rotation time (it skips rotation otherwise), so resetting synced to
	// the fresh header is exact.
	w.syncMu.Lock()
	for w.syncing {
		w.syncCond.Wait()
	}
	w.f.Close()
	w.f = tmp
	w.size.Store(int64(len(hdr)))
	w.synced = int64(len(hdr))
	w.syncMu.Unlock()
	return nil
}

func (w *wal) close() error { return w.f.Close() }

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
