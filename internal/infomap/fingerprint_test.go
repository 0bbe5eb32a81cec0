package infomap

import (
	"testing"

	"github.com/asamap/asamap/internal/asa"
)

func TestFingerprintStable(t *testing.T) {
	a := DefaultOptions().Fingerprint()
	b := DefaultOptions().Fingerprint()
	if a != b {
		t.Fatalf("identical options fingerprint differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
}

func TestFingerprintIgnoresExecutionConfig(t *testing.T) {
	// Workers cannot change result bytes (bit-determinism across worker
	// counts and steal schedules), so it must not fragment the key.
	base := DefaultOptions()
	w8 := base
	w8.Workers = 8
	if base.Fingerprint() != w8.Fingerprint() {
		t.Fatal("Workers changed the fingerprint")
	}
}

func TestFingerprintSensitiveToResultRelevantFields(t *testing.T) {
	base := DefaultOptions()
	mutate := map[string]func(*Options){
		"Kind":           func(o *Options) { o.Kind = ASA },
		"ASAConfig":      func(o *Options) { o.ASAConfig = asa.Config{CapacityBytes: 1024, EntryBytes: 16, Policy: asa.LRU} },
		"MaxSweeps":      func(o *Options) { o.MaxSweeps = 5 },
		"MinImprovement": func(o *Options) { o.MinImprovement = 1e-6 },
		"MaxLevels":      func(o *Options) { o.MaxLevels = 2 },
		"OuterIters":     func(o *Options) { o.OuterIters = 1 },
		"Seed":           func(o *Options) { o.Seed = 42 },
		"Damping":        func(o *Options) { o.Damping = 0.9 },
		"Teleport":       func(o *Options) { o.Teleport = TeleportUnrecorded },
	}
	seen := map[string]string{base.Fingerprint(): "base"}
	for name, fn := range mutate {
		o := base
		fn(&o)
		fp := o.Fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Errorf("mutating %s collides with %s", name, prev)
		}
		seen[fp] = name
	}
}
