package models

import (
	"encoding/gob"
	"fmt"
	"os"

	"iprune/internal/nn"
)

// snapshot is the on-disk form of a trained (possibly pruned) model: the
// architecture is reconstructed by the named builder, so only parameters
// and masks are stored.
type snapshot struct {
	Model   string
	Seed    int64
	Params  [][]float32 // every nn.Param of every layer, in network order
	Masks   []maskSnap  // one per prunable layer; Keep nil = no mask
	Version int
}

type maskSnap struct {
	BM, BK int
	Keep   []bool
}

const snapshotVersion = 1

// Save writes the network's parameters and pruning masks to path. The
// network must have been produced by the named builder with the given
// seed so Load can rebuild the architecture.
func Save(path string, net *nn.Network, seed int64) error {
	snap := snapshot{Model: net.Name, Seed: seed, Version: snapshotVersion}
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			snap.Params = append(snap.Params, append([]float32(nil), p.Data...))
		}
	}
	for _, p := range net.Prunables() {
		ms := maskSnap{}
		if m := p.Mask(); m != nil {
			ms.BM, ms.BK = m.BM, m.BK
			ms.Keep = append([]bool(nil), m.Keep...)
		}
		snap.Masks = append(snap.Masks, ms)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("models: save: %w", err)
	}
	if err := gob.NewEncoder(f).Encode(snap); err != nil {
		_ = f.Close() //iprune:allow-err the encode error is the one to surface; the artifact is discarded
		return fmt.Errorf("models: save %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("models: save %s: %w", path, err)
	}
	return nil
}

// Load rebuilds a network from a snapshot written by Save.
func Load(path string) (*nn.Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("models: load: %w", err)
	}
	defer f.Close() //iprune:allow-err read-only close; decode errors are surfaced below
	var snap snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return nil, fmt.Errorf("models: load %s: %w", path, err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("models: %s has snapshot version %d, want %d", path, snap.Version, snapshotVersion)
	}
	net, err := ByName(snap.Model, snap.Seed)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			if idx >= len(snap.Params) || len(snap.Params[idx]) != len(p.Data) {
				return nil, fmt.Errorf("models: %s: parameter %d shape mismatch", path, idx)
			}
			copy(p.Data, snap.Params[idx])
			idx++
		}
	}
	if idx != len(snap.Params) {
		return nil, fmt.Errorf("models: %s: %d stored parameters, consumed %d", path, len(snap.Params), idx)
	}
	prunables := net.Prunables()
	if len(snap.Masks) != len(prunables) {
		return nil, fmt.Errorf("models: %s: %d masks for %d prunable layers", path, len(snap.Masks), len(prunables))
	}
	for i, ms := range snap.Masks {
		if ms.Keep == nil {
			continue
		}
		if ms.BM <= 0 || ms.BK <= 0 {
			return nil, fmt.Errorf("models: %s: mask %d has invalid block geometry %dx%d", path, i, ms.BM, ms.BK)
		}
		prunables[i].InitBlocks(ms.BM, ms.BK)
		m := prunables[i].Mask()
		if len(m.Keep) != len(ms.Keep) {
			return nil, fmt.Errorf("models: %s: mask %d has %d blocks, want %d", path, i, len(ms.Keep), len(m.Keep))
		}
		copy(m.Keep, ms.Keep)
		prunables[i].ApplyMask()
	}
	return net, nil
}
