// Package bench assembles the detection targets and experiment drivers
// that regenerate every table and figure of the paper's evaluation (§6).
// It is shared by cmd/xfdbench, cmd/xfdetector and the repository's
// testing.B benchmarks.
package bench

import (
	"fmt"

	"github.com/pmemgo/xfdetector/internal/core"
	"github.com/pmemgo/xfdetector/internal/pmcache"
	"github.com/pmemgo/xfdetector/internal/pmredis"
	"github.com/pmemgo/xfdetector/internal/workloads"
)

// RedisTarget drives the mini PM-Redis the way §6.1 drives Intel's
// pmem-redis: query-processing updates as the pre-failure stage, server
// restart (open + recovery + one query) as the post-failure stage.
func RedisTarget(opts pmredis.Options, cfg workloads.TargetConfig) core.Target {
	return core.Target{
		Name: "Redis",
		Pre: func(c *core.Ctx) error {
			db, err := pmredis.Create(c, opts)
			if err != nil {
				return err
			}
			for i := 0; i < cfg.InitSize+cfg.TestSize; i++ {
				if _, err := db.Do(fmt.Sprintf("SET key:%d val:%d", i, i)); err != nil {
					return err
				}
			}
			rounds := cfg.UpdateRounds
			if rounds < 1 {
				rounds = 1
			}
			for r := 0; r < rounds; r++ {
				// Identical values every round: from the second round on the
				// server revisits byte-identical PM states, the repetition
				// the crash-state pruning ablation measures.
				for i := 0; i < cfg.Updates && i < cfg.InitSize; i++ {
					if _, err := db.Do(fmt.Sprintf("SET key:%d upd:%d", i, i)); err != nil {
						return err
					}
				}
			}
			for i := 0; i < cfg.Removes && i < cfg.InitSize; i++ {
				if _, err := db.Do(fmt.Sprintf("DEL key:%d", i)); err != nil {
					return err
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			db, err := pmredis.Open(c, opts)
			if err != nil {
				return nil // creation had not committed; server starts fresh
			}
			if _, err := db.Do("DBSIZE"); err != nil {
				return err
			}
			if !cfg.PostOps {
				return nil
			}
			if _, err := db.Do("SET resumed yes"); err != nil {
				return err
			}
			return db.Verify()
		},
	}
}

// MemcachedTarget drives the mini PM-Memcached analogously.
func MemcachedTarget(cfg workloads.TargetConfig) core.Target {
	return core.Target{
		Name: "Memcached",
		Pre: func(c *core.Ctx) error {
			m, err := pmcache.Create(c)
			if err != nil {
				return err
			}
			for i := 0; i < cfg.InitSize+cfg.TestSize; i++ {
				if _, err := m.Do(fmt.Sprintf("set key%d val%d", i, i)); err != nil {
					return err
				}
			}
			rounds := cfg.UpdateRounds
			if rounds < 1 {
				rounds = 1
			}
			for r := 0; r < rounds; r++ {
				for i := 0; i < cfg.Updates && i < cfg.InitSize; i++ {
					if _, err := m.Do(fmt.Sprintf("set key%d updated%d", i, i)); err != nil {
						return err
					}
				}
			}
			for i := 0; i < cfg.Removes && i < cfg.InitSize; i++ {
				if _, err := m.Do(fmt.Sprintf("delete key%d", i)); err != nil {
					return err
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			m, err := pmcache.Open(c)
			if err != nil {
				return nil // pool or cache not created yet
			}
			if _, err := m.Do("get key1"); err != nil {
				return err
			}
			if !cfg.PostOps {
				return nil
			}
			if _, err := m.Do("set resumed yes"); err != nil {
				return err
			}
			return m.Verify()
		},
	}
}

// Table4Row is one evaluated program.
type Table4Row struct {
	Name   string
	Type   string // "Transaction" or "Low-level"
	Target func(cfg workloads.TargetConfig) core.Target
}

// Table4 returns the evaluated programs of the paper's Table 4: five
// micro benchmarks plus the two real-world workloads.
func Table4() []Table4Row {
	rows := []Table4Row{}
	for _, m := range workloads.Makers() {
		m := m
		typ := "Transaction"
		if m.Name == "Hashmap-Atomic" {
			typ = "Low-level"
		}
		rows = append(rows, Table4Row{
			Name: m.Name,
			Type: typ,
			Target: func(cfg workloads.TargetConfig) core.Target {
				return workloads.DetectionTarget(m, cfg)
			},
		})
	}
	rows = append(rows,
		Table4Row{
			Name: "Memcached",
			Type: "Low-level",
			Target: func(cfg workloads.TargetConfig) core.Target {
				return MemcachedTarget(cfg)
			},
		},
		Table4Row{
			Name: "Redis",
			Type: "Transaction",
			Target: func(cfg workloads.TargetConfig) core.Target {
				return RedisTarget(pmredis.Options{}, cfg)
			},
		},
	)
	return rows
}

// DefaultPoolSize is the pool size the experiments run with.
const DefaultPoolSize = 4 << 20

// Fig12Config is the §6.2.1 configuration: the workload is initialized
// with one insertion and then tested with one insertion, with one
// post-failure operation per failure point.
var Fig12Config = workloads.TargetConfig{InitSize: 1, TestSize: 1, PostOps: true}

// UpdateLoopTarget is the cross-shard pruning experiment's campaign
// shape: a steady-state update loop over a fixed set of slots, the
// server workload whose failure points overwhelmingly freeze repeated
// crash states. The warm-up pass writes every slot under one persist
// barrier, so it contributes only a handful of failure points and — by
// writing each slot once before the loop starts — puts every byte in
// the same shadow classification the loop maintains: from the first
// round on, each pass revisits byte-identical crash states. A
// round-robin shard split then spreads every class's members across all
// shards, which is exactly the redundancy only the cross-shard verdict
// channel can remove (per-shard pruning still re-tests each class once
// per shard).
func UpdateLoopTarget(name string, slots, rounds int) core.Target {
	return core.Target{
		Name: name,
		Pre: func(c *core.Ctx) error {
			p := c.Pool()
			// A dirty byte the post stage reads: present in every crash
			// image but never persisted, so each class's representative
			// reports the same cross-failure race — the campaign finds a
			// real bug, which gives the cross-shard equivalence tests a
			// non-empty key set to hold fixed.
			p.Store64(uint64(slots)*64, 1)
			// One store site for warm-up and loop: the crash-state
			// fingerprint attributes each byte to its writer, so a separate
			// warm-up store line would leave the loop's first round
			// classifying differently (bytes not yet rewritten still blame
			// the warm-up) and turn a full round into unique classes.
			store := func(i int) { p.Store64(uint64(i)*64, uint64(i)+1) }
			for i := 0; i < slots; i++ {
				store(i)
			}
			p.Persist(0, uint64(slots)*64)
			for r := 0; r < rounds; r++ {
				for i := 0; i < slots; i++ {
					store(i)
					p.Persist(uint64(i)*64, 8)
				}
			}
			return nil
		},
		Post: func(c *core.Ctx) error {
			p := c.Pool()
			for i := 0; i <= slots; i++ {
				p.Load64(uint64(i) * 64)
			}
			return nil
		},
	}
}

// PruneAblationConfig is the crash-state pruning ablation's workload
// configuration: a small structure whose update pass is repeated thirty
// times with identical values, so the bulk of the failure points freeze
// byte-identical crash states and a pruned run tests each distinct class
// once. BenchmarkAblationPruning and the EXPERIMENTS.md ablation use it.
var PruneAblationConfig = workloads.TargetConfig{
	InitSize: 2, TestSize: 1, Updates: 2, UpdateRounds: 30, PostOps: true,
}

// RecordedFanoutTarget is the campaign BenchmarkRecordedFanout and
// TestRecordedFanoutAcceptance share: the update-heavy B-Tree with its
// validation suite's skip-add-leaf fault seeded, so the merged key sets
// both compare are non-empty. The pre-failure stage runs sixty pmobj
// update transactions with per-store source-location capture — the work a
// replaying shard replaces with trace application, which is where
// the recorded artifact's speedup comes from.
func RecordedFanoutTarget() core.Target {
	m, ok := workloads.MakerFor("B-Tree")
	if !ok {
		panic("bench: B-Tree workload not registered")
	}
	cfg := PruneAblationConfig
	cfg.Fault = "btree-skip-add-leaf"
	return workloads.DetectionTarget(m, cfg)
}
