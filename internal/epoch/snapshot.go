package epoch

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mil"
)

// Checkpoints are the durable form of an epoch: a snap-<epoch>.d directory
// holding the env's columns as heap-file parts, written by the caller's
// SaveEnv (per-part CRC, the rewritten parts in one pack that is fsynced
// and renamed once, unchanged parts hard-linked from the previous
// checkpoint's files, manifest last) and read back by its LoadEnv. The
// BATs are the database; nothing else is checkpointed.
//
// Durability protocol: assemble snap-<epoch>.d.tmp, fsync it, atomically
// rename it to snap-<epoch>.d, fsync the parent directory. A crash before
// the rename leaves a .tmp that recovery prunes; a crash after it leaves a
// complete checkpoint.
//
// Retention: the newest two checkpoints stay on disk, and the WAL keeps
// every record past the older one (wal.go keeps the previous segment on
// rotation). Recovery loads the newest checkpoint whose manifest verifies
// and replays the WAL past it, so a damaged newest checkpoint falls back
// one generation and replays a longer tail, losing nothing. A pack stays
// on disk whole while any retained checkpoint links it, so the disk holds
// the live bytes plus the superseded parts of packs still lent from —
// typically the first checkpoint's pack, whose unchanged families every
// later checkpoint borrows.

const snapDirSuffix = ".d"

func snapDirName(epoch uint64) string { return fmt.Sprintf("snap-%016d%s", epoch, snapDirSuffix) }

// writeSnapshotDir persists env as the checkpoint of epoch. The whole
// directory is assembled under a .tmp name and renamed into place, so the
// protocol's crash points hold: a kill before the rename (the pack durable
// without a manifest, or the whole directory synced) leaves droppings that
// recovery prunes, a kill after leaves a complete checkpoint. A damaged
// checkpoint of the same epoch is replaced.
func writeSnapshotDir(dir string, epoch uint64, env mil.Env,
	save func(tmpDir, finalDir string, env mil.Env) error, hooks *Hooks) error {
	final := filepath.Join(dir, snapDirName(epoch))
	tmpPath := final + ".tmp"
	// A leftover .tmp from a crashed attempt must not contaminate this one.
	if err := os.RemoveAll(tmpPath); err != nil {
		return err
	}
	if err := save(tmpPath, final, env); err != nil {
		os.RemoveAll(tmpPath)
		return err
	}
	if err := syncDir(tmpPath); err != nil {
		os.RemoveAll(tmpPath)
		return err
	}
	hooks.At("snapshot:before-rename")
	if err := os.RemoveAll(final); err != nil {
		return err
	}
	if err := os.Rename(tmpPath, final); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	hooks.At("snapshot:after-rename")
	return nil
}

// listSnapshots returns the epochs of the checkpoint directories in dir,
// newest first, skipping .tmp leftovers and anything else.
func listSnapshots(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		rest, ok := strings.CutPrefix(e.Name(), "snap-")
		if !ok || !e.IsDir() {
			continue
		}
		rest, ok = strings.CutSuffix(rest, snapDirSuffix)
		if !ok {
			continue
		}
		if n, err := strconv.ParseUint(rest, 10, 64); err == nil {
			epochs = append(epochs, n)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] > epochs[j] })
	return epochs, nil
}

// pruneSnapshots keeps the newest two checkpoints and removes older ones
// and stray .tmp droppings (files and half-built checkpoint directories).
// Best-effort: removal failures are ignored (an extra old checkpoint is
// harmless). Checkpoints hard-link the packs they borrow parts from, so
// removing an older directory never invalidates a newer one — a pack's
// inode survives until the last link drops, and with it every part in it,
// superseded ones included.
func pruneSnapshots(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	epochs, err := listSnapshots(dir)
	if err != nil {
		return
	}
	for i := 2; i < len(epochs); i++ {
		os.RemoveAll(filepath.Join(dir, snapDirName(epochs[i])))
	}
}
