package server

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/refresh"
	"repro/internal/shard"
)

// TestConfigTranslations pins the two translations of a Config into
// worker configs: every rebuild setting is carried to both, and an
// explicit c pins itself — RederiveCAfter drops to 0 in both.
func TestConfigTranslations(t *testing.T) {
	derived := Config{
		OCA:                  core.Options{Seed: 3, Workers: 2},
		DisableWarmStart:     true,
		RefreshDebounce:      7 * time.Millisecond,
		MaxPendingMutations:  11,
		MaxNodes:             13,
		RederiveCAfter:       0.3,
		IncrementalThreshold: 0.4,
	}
	pinned := derived
	pinned.OCA.C = 0.5
	for _, tc := range []struct {
		name     string
		cfg      Config
		rederive float64
	}{
		{"derived c", derived, 0.3},
		{"pinned c", pinned, 0},
	} {
		wantRefresh := refresh.Config{
			OCA: tc.cfg.OCA, DisableWarmStart: true, Debounce: 7 * time.Millisecond, MaxPending: 11,
			MaxNodes: 13, RederiveCAfter: tc.rederive, IncrementalThreshold: 0.4,
		}
		wantShard := shard.Config{
			OCA: tc.cfg.OCA, DisableWarmStart: true, Debounce: 7 * time.Millisecond, MaxPending: 11,
			MaxNodes: 13, RederiveCAfter: tc.rederive, IncrementalThreshold: 0.4,
		}
		rc, sc := tc.cfg.RefreshConfig(), tc.cfg.ShardConfig()
		if !reflect.DeepEqual(rc, wantRefresh) {
			t.Errorf("%s: RefreshConfig() = %+v, want %+v", tc.name, rc, wantRefresh)
		}
		if !reflect.DeepEqual(sc, wantShard) {
			t.Errorf("%s: ShardConfig() = %+v, want %+v", tc.name, sc, wantShard)
		}
		if tc.rederive == 0 {
			continue
		}
		// Every setting, not just the ones listed above: a field either
		// translation gains must be carried, or this names it. Hooks and
		// the partition map are the caller's to add.
		for _, v := range []reflect.Value{reflect.ValueOf(rc), reflect.ValueOf(sc)} {
			for i := 0; i < v.NumField(); i++ {
				f := v.Type().Field(i)
				switch {
				case !f.IsExported(), f.Type.Kind() == reflect.Func, f.Type.Kind() == reflect.Pointer:
				case v.Field(i).IsZero():
					t.Errorf("%s: %s.%s is not carried from Config", tc.name, v.Type(), f.Name)
				}
			}
		}
	}
}
