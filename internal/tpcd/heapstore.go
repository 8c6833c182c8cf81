package tpcd

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bat"
	"repro/internal/epoch"
	"repro/internal/mil"
	"repro/internal/storage/heapfile"
)

// Checkpoint codec: serializes a served env as a heap-file directory
// (internal/storage/heapfile) and maps it back into BAT columns — the one
// durable format, and what a restarted store serves from. Each column is
// one or more parts; a checkpoint writes the parts it rewrites into its
// one pack and borrows the rest by linking the packs they already live in.
// Three entry shapes cover the whole TPC-D env:
//
//   - extent     [void,void]         — rows only, no bytes on disk;
//   - attr       [oid,T] + dv        — the tail-ordered layout Section 5.2
//     prescribes: head part + tail part (strings add a chars part). The
//     datavector is NOT persisted; it is rebuilt at map time by scattering
//     the tail back into oid order — a deterministic inverse of the
//     checkpointed sort, so the rebuilt accelerator is bit-identical to the
//     bulk loader's. The disk format stays raw column bytes, mappable with
//     no translation;
//   - setindex   [oid,oid] + props   — head and tail parts, no accelerator.
//
// The manifest's opaque meta records the entry list, so loading needs no
// schema knowledge beyond this codec — the epoch store treats both sides
// as black boxes.

type heapEntry struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "extent" | "attr" | "setindex"
	Rows int    `json:"rows"`
	// Head is "oid" for a materialized head column, "void" when the tail
	// sort was the identity permutation and the dense head survived (Base
	// holds its sequence start). Attr entries only.
	Head   string `json:"head,omitempty"`
	Base   uint32 `json:"base,omitempty"`
	Tail   string `json:"tail,omitempty"`   // attr tail kind
	Props  uint16 `json:"props"`            // BAT properties
	DVBase uint32 `json:"dvBase,omitempty"` // attr datavector dense-extent base
}

type heapMeta struct {
	Schema  string      `json:"schema"`
	Entries []heapEntry `json:"entries"`
}

const heapSchema = "tpcd-env/v1"

// classifyEntry derives the checkpoint shape of one env BAT.
func classifyEntry(name string, b *bat.BAT) (heapEntry, error) {
	if dv := b.Datavector(); dv != nil {
		if b.T.Kind() == bat.KVoid {
			return heapEntry{}, fmt.Errorf("heapstore: %s: void attr tails are not checkpointable", name)
		}
		e := heapEntry{Name: name, Kind: "attr", Rows: b.Len(), Tail: b.T.Kind().String(),
			Props: uint16(b.Props), DVBase: uint32(dv.Base)}
		switch h := b.H.(type) {
		case *bat.VoidCol:
			// Tail was already ordered; the sort kept the dense head.
			e.Head, e.Base = "void", uint32(h.Seq)
		case *bat.OIDCol:
			e.Head = "oid"
		default:
			return heapEntry{}, fmt.Errorf("heapstore: %s: unsupported attr head %T", name, b.H)
		}
		return e, nil
	}
	if _, hVoid := b.H.(*bat.VoidCol); hVoid {
		if _, tVoid := b.T.(*bat.VoidCol); tVoid {
			return heapEntry{Name: name, Kind: "extent", Rows: b.Len()}, nil
		}
		return heapEntry{}, fmt.Errorf("heapstore: %s: [void,%T] without a datavector is not a checkpointable shape", name, b.T)
	}
	if _, ok := b.H.(*bat.OIDCol); !ok {
		return heapEntry{}, fmt.Errorf("heapstore: %s: unsupported head column %T", name, b.H)
	}
	if _, ok := b.T.(*bat.OIDCol); !ok {
		return heapEntry{}, fmt.Errorf("heapstore: %s: unsupported index tail %T", name, b.T)
	}
	return heapEntry{Name: name, Kind: "setindex", Rows: b.Len(), Props: uint16(b.Props)}, nil
}

// columnBlobs returns a column's part names and raw bytes.
func columnBlobs(base string, c bat.Column) ([]string, [][]byte, error) {
	switch t := c.(type) {
	case *bat.OIDCol:
		return []string{base}, [][]byte{heapfile.BytesOf(t.V)}, nil
	case *bat.IntCol:
		return []string{base}, [][]byte{heapfile.BytesOf(t.V)}, nil
	case *bat.FltCol:
		return []string{base}, [][]byte{heapfile.BytesOf(t.V)}, nil
	case *bat.ChrCol:
		return []string{base}, [][]byte{t.V}, nil
	case *bat.BitCol:
		return []string{base}, [][]byte{heapfile.BytesOf(t.V)}, nil
	case *bat.DateCol:
		return []string{base}, [][]byte{heapfile.BytesOf(t.V)}, nil
	case *bat.StrCol:
		// A sliced view carries offsets into a larger shared char heap;
		// compact it so the parts hold exactly this column's bytes.
		if len(t.Off) > 0 && (t.Off[0] != 0 || int(t.Off[len(t.Off)-1]) != len(t.Chars)) {
			v := make([]string, t.Len())
			for i := range v {
				v[i] = t.At(i)
			}
			t = bat.NewStrColFromStrings(v)
		}
		return []string{base, base + ".chars"}, [][]byte{heapfile.BytesOf(t.Off), []byte(t.Chars)}, nil
	default:
		return nil, nil, fmt.Errorf("heapstore: unsupported column %T", c)
	}
}

// entryFiles lists an entry's logical part names and contents.
func entryFiles(e heapEntry, b *bat.BAT) (names []string, blobs [][]byte, err error) {
	switch e.Kind {
	case "extent":
		return nil, nil, nil
	case "attr", "setindex":
		var hn []string
		var hb [][]byte
		if e.Head != "void" {
			var err error
			hn, hb, err = columnBlobs(e.Name+".head", b.H)
			if err != nil {
				return nil, nil, err
			}
		}
		tn, tb, err := columnBlobs(e.Name+".tail", b.T)
		if err != nil {
			return nil, nil, err
		}
		return append(hn, tn...), append(hb, tb...), nil
	}
	return nil, nil, fmt.Errorf("heapstore: %s: unknown entry kind %q", e.Name, e.Kind)
}

// heapCheckpointer writes columnar checkpoints with copy-on-write reuse:
// a BAT whose pointer is unchanged since the previous checkpoint has
// unchanged bytes (BAT-algebra immutability), so its parts are borrowed
// from that checkpoint — the pack holding them is hard-linked — instead of
// rewritten. The refresh path replaces exactly the Order/Item families and
// two set indexes per epoch; everything else is borrowed, which keeps
// checkpoint writes proportional to the touched data, not the database.
type heapCheckpointer struct {
	dir   string              // previous committed checkpoint ("" before first)
	man   *heapfile.Manifest  // its manifest (Borrow source)
	bats  map[string]*bat.BAT // env pointers captured at that checkpoint
	hooks *epoch.Hooks        // fires epoch.SnapshotBeforeManifest
}

// save implements epoch.Options.SaveEnv. Called by the store with
// apply-stage exclusivity; tmpDir is assembled in place and renamed to
// finalDir by the caller afterwards.
func (hc *heapCheckpointer) save(tmpDir, finalDir string, env mil.Env) error {
	names := make([]string, 0, len(env))
	for n := range env {
		names = append(names, n)
	}
	sort.Strings(names)

	meta := heapMeta{Schema: heapSchema, Entries: make([]heapEntry, 0, len(names))}
	for _, n := range names {
		e, err := classifyEntry(n, env[n])
		if err != nil {
			return err
		}
		meta.Entries = append(meta.Entries, e)
	}
	metaJSON, err := json.Marshal(&meta)
	if err != nil {
		return err
	}
	w, err := heapfile.NewWriter(tmpDir, metaJSON)
	if err != nil {
		return err
	}
	defer w.Abort()
	w.BeforeManifest = func() { hc.hooks.At(epoch.SnapshotBeforeManifest) }
	for _, e := range meta.Entries {
		b := env[e.Name]
		parts, blobs, err := entryFiles(e, b)
		if err != nil {
			return err
		}
		borrow := hc.man != nil && hc.bats[e.Name] == b
		for i, part := range parts {
			if borrow {
				if fi, ok := hc.man.Lookup(part); ok {
					if err := w.Borrow(part, hc.dir, fi); err == nil {
						continue
					}
					// Link and copy both failed (e.g. the source checkpoint
					// vanished or its bytes no longer verify): fall through
					// to a fresh write.
				}
			}
			if err := w.Put(part, blobs[i]); err != nil {
				return err
			}
		}
	}
	if err := w.Commit(); err != nil {
		return err
	}
	hc.dir = finalDir
	hc.man = w.Manifest()
	hc.bats = make(map[string]*bat.BAT, len(env))
	for n, b := range env {
		hc.bats[n] = b
	}
	return nil
}

// seed records a freshly mapped checkpoint as the Borrow source, so the
// first post-recovery checkpoint already copy-on-writes against it.
func (hc *heapCheckpointer) seed(dir string, man *heapfile.Manifest, env mil.Env) {
	hc.dir = dir
	hc.man = man
	hc.bats = make(map[string]*bat.BAT, len(env))
	for n, b := range env {
		hc.bats[n] = b
	}
}

// mappedColumn wires one part's mapping(s) into a column whose backing
// array IS the file and whose touch spans advise the mapping.
func mappedColumn(s *heapfile.Store, base, kind string) (bat.Column, error) {
	m := s.Mapping(base)
	if m == nil {
		return nil, fmt.Errorf("heapstore: %s missing from checkpoint", base)
	}
	switch kind {
	case "oid":
		return bat.NewMappedCol(heapfile.View[bat.OID](m)), nil
	case "int":
		return bat.NewMappedCol(heapfile.View[int64](m)), nil
	case "flt":
		return bat.NewMappedCol(heapfile.View[float64](m)), nil
	case "chr":
		return bat.NewMappedCol(m.Bytes()), nil
	case "bit":
		return bat.NewMappedCol(heapfile.View[bool](m)), nil
	case "date":
		return bat.NewMappedCol(heapfile.View[int32](m)), nil
	case "str":
		mc := s.Mapping(base + ".chars")
		if mc == nil {
			return nil, fmt.Errorf("heapstore: %s.chars missing from checkpoint", base)
		}
		return bat.NewMappedStrCol(heapfile.View[uint32](m), heapfile.ViewString(mc)), nil
	default:
		return nil, fmt.Errorf("heapstore: unknown column kind %q", kind)
	}
}

// rebuildDatavector inverts the tail sort: gather the tail through the
// inverse of the head permutation (extent position head-base ← row),
// rebuilding the oid-ordered vector the bulk loader fed to
// NewDenseDatavector. Deterministic, so the accelerator matches the bulk
// loader's bit-for-bit.
func rebuildDatavector(base bat.OID, headAt func(int) bat.OID, tail bat.Column, rows int) (*bat.Datavector, error) {
	inv := make([]int32, rows)
	for i := 0; i < rows; i++ {
		o := headAt(i)
		p := int(o) - int(base)
		if p < 0 || p >= rows {
			return nil, fmt.Errorf("heapstore: head oid %d outside dense extent [%d,%d)", o, base, int(base)+rows)
		}
		inv[p] = int32(i)
	}
	// An identity permutation gathers as a view of the mapped tail; the
	// vector must own its storage (and its own heap id once persisted), as
	// the bulk loader's does.
	return bat.NewDenseDatavector(base, bat.UnshareColumn(bat.Gather(tail, inv))), nil
}

// loadEnvHeap maps a checkpoint directory back into a served env. The
// returned heapfile.Store owns the mappings; it must stay open as long as
// any epoch serves views over them (the epoch store's closer list).
func loadEnvHeap(dir string) (mil.Env, *heapfile.Store, error) {
	s, err := heapfile.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (mil.Env, *heapfile.Store, error) {
		s.Close()
		return nil, nil, err
	}
	var meta heapMeta
	if err := json.Unmarshal(s.Manifest().Meta, &meta); err != nil {
		return fail(fmt.Errorf("heapstore: %s: corrupt entry meta: %w", dir, err))
	}
	if meta.Schema != heapSchema {
		return fail(fmt.Errorf("heapstore: %s: schema %q, want %q", dir, meta.Schema, heapSchema))
	}
	env := mil.Env{}
	for _, e := range meta.Entries {
		switch e.Kind {
		case "extent":
			env[e.Name] = newExtent(e.Name, e.Rows)
		case "attr":
			var hcol bat.Column
			var headAt func(int) bat.OID
			switch e.Head {
			case "void":
				hcol = bat.NewVoid(bat.OID(e.Base), e.Rows)
				headAt = func(i int) bat.OID { return bat.OID(e.Base) + bat.OID(i) }
			case "oid":
				c, err := mappedColumn(s, e.Name+".head", "oid")
				if err != nil {
					return fail(err)
				}
				oc := c.(*bat.OIDCol)
				hcol = oc
				headAt = func(i int) bat.OID { return oc.V[i] }
			default:
				return fail(fmt.Errorf("heapstore: %s: unknown attr head %q", e.Name, e.Head))
			}
			tcol, err := mappedColumn(s, e.Name+".tail", e.Tail)
			if err != nil {
				return fail(err)
			}
			if hcol.Len() != e.Rows || tcol.Len() != e.Rows {
				return fail(fmt.Errorf("heapstore: %s: %d/%d rows mapped, manifest says %d",
					e.Name, hcol.Len(), tcol.Len(), e.Rows))
			}
			b := bat.New(e.Name, hcol, tcol, bat.Props(e.Props))
			// The accelerator is rebuilt, not loaded: same deterministic
			// projection the bulk load runs, same bits.
			dv, err := rebuildDatavector(bat.OID(e.DVBase), headAt, tcol, e.Rows)
			if err != nil {
				return fail(err)
			}
			b.SetDatavector(dv)
			b.Persist()
			env[e.Name] = b
		case "setindex":
			hcol, err := mappedColumn(s, e.Name+".head", "oid")
			if err != nil {
				return fail(err)
			}
			tcol, err := mappedColumn(s, e.Name+".tail", "oid")
			if err != nil {
				return fail(err)
			}
			if hcol.Len() != e.Rows || tcol.Len() != e.Rows {
				return fail(fmt.Errorf("heapstore: %s: index length mismatch", e.Name))
			}
			ix := bat.New(e.Name, hcol, tcol, bat.Props(e.Props))
			ix.Persist()
			env[e.Name] = ix
		default:
			return fail(fmt.Errorf("heapstore: %s: unknown entry kind %q", e.Name, e.Kind))
		}
	}
	return env, s, nil
}
