package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// FieldType is the JSON type a schema field must carry.
type FieldType int

// The three JSON payload types events use.
const (
	TypeNum FieldType = iota
	TypeStr
	TypeBool
)

func (t FieldType) String() string {
	switch t {
	case TypeNum:
		return "number"
	case TypeStr:
		return "string"
	case TypeBool:
		return "bool"
	}
	return fmt.Sprintf("FieldType(%d)", int(t))
}

// FieldSpec declares one payload field of an event type.
type FieldSpec struct {
	Name     string
	Type     FieldType
	Optional bool
}

// Schema is the trace event catalog: every event type the pipeline emits
// and its payload fields. ValidateLine (and cmd/tracecheck on top of it)
// enforces it; the determinism tests and the CI obs job consume it.
// Unknown event names and undeclared payload fields are schema errors —
// the catalog is closed so a trace reader can rely on it.
var Schema = map[string][]FieldSpec{
	// Run lifecycle. Deliberately config-light: worker counts and
	// prefetch depth are excluded (gauges carry them) so the trace stays
	// identical across concurrency settings.
	"run.start": {
		{Name: "kind", Type: TypeStr},
		{Name: "dims", Type: TypeStr},
		{Name: "rank", Type: TypeNum},
		{Name: "resumed", Type: TypeBool},
	},
	"run.done": {
		{Name: "fit", Type: TypeNum},
		{Name: "virtual_iters", Type: TypeNum},
		{Name: "converged", Type: TypeBool},
	},
	// Phase 0: one event per run when an accelerator is configured.
	"phase0.sketch": {
		{Name: "accelerator", Type: TypeStr},
		{Name: "active", Type: TypeBool},
		{Name: "reason", Type: TypeStr, Optional: true},
		{Name: "core_dims", Type: TypeStr, Optional: true},
		{Name: "core_fit", Type: TypeNum, Optional: true},
		{Name: "core_iters", Type: TypeNum, Optional: true},
	},
	// Phase 1: one event per grid block, emitted by the worker that
	// finished it. cached marks blocks restored from a checkpoint
	// (sweeps is 0 for those — nothing was recomputed).
	"phase1.block": {
		{Name: "block", Type: TypeNum},
		{Name: "fit", Type: TypeNum},
		{Name: "sweeps", Type: TypeNum},
		{Name: "cached", Type: TypeBool},
	},
	// Phase 2: one event per schedule step and one per virtual
	// iteration boundary.
	"phase2.step": {
		{Name: "step", Type: TypeNum},
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
	},
	"phase2.iter": {
		{Name: "iter", Type: TypeNum},
		{Name: "fit", Type: TypeNum},
	},
	// Buffer replacement decisions, emitted on the manager's owning
	// goroutine at the decision point (deterministic per the buffer
	// package's prefetch-transparency contract).
	"buffer.fetch": {
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
		{Name: "bytes", Type: TypeNum},
	},
	"buffer.evict": {
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
	},
	"buffer.writeback": {
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
		{Name: "bytes", Type: TypeNum},
	},
	// Raw store traffic. Only Puts are traced: raw read counts vary with
	// prefetch depth, so reads surface as buffer.fetch instead. bytes is
	// what was written — a whole unit at seeding, the A part on a
	// write-back — where buffer.writeback's is the evicted unit's size.
	"blockstore.put": {
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
		{Name: "bytes", Type: TypeNum},
	},
	// Durability: one event per checkpoint record made durable and one
	// when a run resumes from a manifest. file names the record
	// (p1-block-<id>.ckpt, phase2.ckpt, result.ckpt), not the file that
	// holds it. checkpoint.write byte counts are real record sizes and
	// exempt from the cross-configuration determinism guarantee (a
	// phase2.ckpt record embeds I/O counters).
	"checkpoint.write": {
		{Name: "file", Type: TypeStr},
		{Name: "bytes", Type: TypeNum},
	},
	"checkpoint.resume": {
		{Name: "stage", Type: TypeStr},
	},
	// Resilience: one store.retry event per retry attempt (emitted by the
	// Retryer before it backs off). It records *recovery* from
	// nondeterministic outside events — fault timing, probabilistic
	// injection, I/O races — so its multiset is exempt from the
	// cross-configuration determinism guarantee; the contract it does
	// carry is reconciliation: the number of store.retry events in a
	// single-process trace equals the run's Stats.Retries total
	// (cmd/tracecheck -run-stats enforces it). mode/part are -1 when the
	// retried operation is a Phase-1 block read (op "block"), which is
	// addressed by block id in part.
	"store.retry": {
		{Name: "op", Type: TypeStr},
		{Name: "mode", Type: TypeNum},
		{Name: "part", Type: TypeNum},
		{Name: "attempt", Type: TypeNum},
		{Name: "backoff_ns", Type: TypeNum},
		{Name: "error", Type: TypeStr},
	},
}

// ValidateLine checks one JSONL trace line against the Schema: it must be
// a JSON object with a known "ev" name, a numeric "ts" (and optional
// numeric "dur"), every required field present, every present field of
// the declared type, and no undeclared fields.
func ValidateLine(line []byte) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil {
		return fmt.Errorf("not a JSON object: %w", err)
	}
	name, ok := m["ev"].(string)
	if !ok {
		return fmt.Errorf("missing or non-string \"ev\"")
	}
	specs, ok := Schema[name]
	if !ok {
		return fmt.Errorf("unknown event %q", name)
	}
	if _, ok := m["ts"].(json.Number); !ok {
		return fmt.Errorf("%s: missing or non-numeric \"ts\"", name)
	}
	if d, present := m["dur"]; present {
		if _, ok := d.(json.Number); !ok {
			return fmt.Errorf("%s: non-numeric \"dur\"", name)
		}
	}
	declared := map[string]FieldSpec{}
	for _, s := range specs {
		declared[s.Name] = s
	}
	for _, s := range specs {
		v, present := m[s.Name]
		if !present {
			if s.Optional {
				continue
			}
			return fmt.Errorf("%s: missing field %q", name, s.Name)
		}
		if err := checkType(v, s.Type); err != nil {
			return fmt.Errorf("%s: field %q: %w", name, s.Name, err)
		}
	}
	for k := range m {
		if k == "ev" || k == "ts" || k == "dur" {
			continue
		}
		if _, ok := declared[k]; !ok {
			return fmt.Errorf("%s: undeclared field %q", name, k)
		}
	}
	return nil
}

func checkType(v any, want FieldType) error {
	switch want {
	case TypeNum:
		if _, ok := v.(json.Number); !ok {
			return fmt.Errorf("want %s, got %T", want, v)
		}
	case TypeStr:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("want %s, got %T", want, v)
		}
	case TypeBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("want %s, got %T", want, v)
		}
	}
	return nil
}
