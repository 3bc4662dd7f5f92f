package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"wlanmcast/internal/engine"
	"wlanmcast/internal/obs"
	"wlanmcast/internal/wlan"
)

// digest identifies an association by the SHA-256 of its compact JSON
// (the per-user AP array, or per-user AP-set arrays).
type digest [sha256.Size]byte

func digestOf(raw []byte) (digest, error) {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return digest{}, err
	}
	return sha256.Sum256(b.Bytes()), nil
}

// state is the daemon's association as served: the raw JSON of
// /v1/assoc's "assoc" and, with multi-homing, /v1/multiassoc's
// "multi_assoc".
type state struct {
	assoc, multi json.RawMessage
}

func fetchState(d *daemon, multi bool) (state, error) {
	var st state
	var a struct {
		Assoc json.RawMessage `json:"assoc"`
	}
	if err := d.getJSON("/v1/assoc", &a); err != nil {
		return st, err
	}
	st.assoc = a.Assoc
	if multi {
		var m struct {
			MultiAssoc json.RawMessage `json:"multi_assoc"`
		}
		if err := d.getJSON("/v1/multiassoc", &m); err != nil {
			return st, err
		}
		st.multi = m.MultiAssoc
	}
	return st, nil
}

func (d *daemon) assocDigest() (digest, error) {
	st, err := fetchState(d, false)
	if err != nil {
		return digest{}, err
	}
	return digestOf(st.assoc)
}

// daemonConfig is the engine configuration the daemon builds for this
// workload, on the given number of shards: its own metrics registry
// and the trace ring every served engine records into, so an
// in-process engine costs what the daemon's does.
func (in *engineInputs) daemonConfig(shards int) engine.Config {
	cfg := in.cfg
	cfg.Shards = shards
	cfg.Obs = obs.NewRegistry()
	cfg.Trace = obs.NewRing(0)
	return cfg
}

// reference is the in-process engine that was fed exactly what the
// daemon acknowledged, with the same call boundaries.
type reference struct {
	eng *engine.Engine
	// seconds is the whole replay; throughputSeconds the share spent on
	// the parts the daemon applied at full speed (not the paced ones).
	seconds, throughputSeconds float64
	// mismatch is the first mid-run digest that differed, if any.
	mismatch error
}

// replay builds the reference engine — the daemon's configuration on
// one shard — and applies the parts the daemon applied:
// window-sized ApplyStream calls for streamed parts, one-event
// ApplyBatch calls for posted ones, which is what the handlers do.
// Digests the daemon served mid-run are confirmed on the way.
func replay(ctx context.Context, r *runner, in *engineInputs, parts []part, checkpoints map[int]digest) (*reference, error) {
	id := r.tr.begin("verify.replay")
	defer r.tr.end(id)
	n, err := in.spec.Network()
	if err != nil {
		return nil, err
	}
	e, err := engine.New(n, in.daemonConfig(1))
	if err != nil {
		return nil, err
	}
	ref := &reference{eng: e}
	for _, p := range parts {
		t0 := time.Now()
		for s := p.from; s < p.to; s += p.window {
			if s&1023 == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			batch := in.events[s:min(s+p.window, p.to)]
			if p.window == 1 {
				_, err = e.ApplyBatch(batch)
			} else {
				_, err = e.ApplyStream(batch)
			}
			if err != nil {
				return nil, fmt.Errorf("reference engine rejected event near %d, which the daemon accepted: %w", s, err)
			}
		}
		d := time.Since(t0).Seconds()
		ref.seconds += d
		if !p.paced {
			ref.throughputSeconds += d
		}
		if want, ok := checkpoints[p.to]; ok {
			raw, err := json.Marshal(e.Snapshot())
			if err != nil {
				return nil, err
			}
			if got, _ := digestOf(raw); got != want && ref.mismatch == nil {
				ref.mismatch = fmt.Errorf("association the daemon served after %d events differs from the reference", p.to)
			}
		}
	}
	return ref, nil
}

// confirm checks the daemon's final state against the reference:
// association bytes (and AP-set bytes with multi-homing), the served
// and active counts, and — independently of the engine — that every
// association is between a user and an AP in radio range of it.
func (ref *reference) confirm(final state, st status) error {
	if ref.mismatch != nil {
		return ref.mismatch
	}
	e := ref.eng
	want, err := json.Marshal(e.Snapshot())
	if err != nil {
		return err
	}
	got := new(bytes.Buffer)
	if err := json.Compact(got, final.assoc); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("/v1/assoc differs from the reference engine's association")
	}
	a, err := wlan.DecodeAssoc(final.assoc, e.NumAPs(), e.NumUsers())
	if err != nil {
		return err
	}
	if err := e.Network().Validate(a, false); err != nil {
		return err
	}
	if st.ActiveUsers != e.ActiveUsers() || st.Satisfied != a.SatisfiedCount() {
		return fmt.Errorf("/v1/status reports %d active, %d satisfied; the reference has %d, %d",
			st.ActiveUsers, st.Satisfied, e.ActiveUsers(), a.SatisfiedCount())
	}
	if e.MaxHomes() <= 1 {
		return nil
	}
	ma := e.MultiSnapshot()
	if want, err = json.Marshal(ma); err != nil {
		return err
	}
	got.Reset()
	if err := json.Compact(got, final.multi); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("/v1/multiassoc differs from the reference engine's AP sets")
	}
	if err := e.Network().ValidateMulti(ma, false); err != nil {
		return err
	}
	if st.MultiSatisfied != ma.SatisfiedCount() {
		return fmt.Errorf("/v1/status reports %d multi-satisfied, the reference has %d", st.MultiSatisfied, ma.SatisfiedCount())
	}
	return nil
}
