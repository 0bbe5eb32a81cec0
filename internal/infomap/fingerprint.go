package infomap

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// fingerprintVersion tags the byte layout of Fingerprint so the encoding can
// change without aliasing digests cached under an older scheme.
const fingerprintVersion = "asamap-opt-v1\n"

// fingerprintExcluded lists the Options fields that Fingerprint deliberately
// does NOT hash, each with the reason it cannot change result bytes. The
// fingerprint analyzer (cmd/asalint) checks this list against the struct:
// a field that is neither hashed nor listed here fails the lint build.
var fingerprintExcluded = map[string]string{
	"Workers": "bit-identical results across any worker count for a fixed Seed (sweep scheduler contract)",
	"Trace":   "span tracing is write-only telemetry (observed durations and event counts), never an input to the partition",
}

// Fingerprint returns a stable hex digest over every option field that can
// change the bytes of a result. Together with a graph's CanonicalHash and
// the Seed it identifies a run completely, which is what makes detection
// results cacheable: same (graph hash, fingerprint) in, same bytes out.
//
// Every Options field must either be hashed here or appear in
// fingerprintExcluded with a justification — the fingerprint analyzer
// (cmd/asalint) enforces that invariant, so adding a result-relevant field
// without extending the digest fails the lint build instead of silently
// aliasing cache entries. The Seed IS included — it selects the visitation
// order and therefore the result.
func (o Options) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h.Write([]byte(fingerprintVersion))
	u64(uint64(o.Kind))
	// ASAConfig shapes accumulation order on overflow and is therefore
	// result-relevant for the ASA backend; hash it unconditionally so the
	// encoding does not depend on Kind.
	u64(uint64(o.ASAConfig.CapacityBytes))
	u64(uint64(o.ASAConfig.EntryBytes))
	u64(uint64(o.ASAConfig.Policy))
	u64(uint64(o.MaxSweeps))
	f64(o.MinImprovement)
	u64(uint64(o.MaxLevels))
	u64(uint64(o.OuterIters))
	u64(o.Seed)
	f64(o.Damping)
	u64(uint64(o.Teleport))
	// The warm-start seed partition and its frontier restriction change
	// which vertices are re-optimized and from where, so they are fully
	// result-relevant. A nil WarmStart (cold run) is distinguished from an
	// empty-but-present one by the leading presence byte.
	if o.WarmStart == nil {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
		u64(uint64(len(o.WarmStart)))
		for _, m := range o.WarmStart {
			u64(uint64(m))
		}
	}
	u64(uint64(len(o.FrontierSeeds)))
	for _, s := range o.FrontierSeeds {
		u64(uint64(s))
	}
	u64(uint64(o.FrontierHops))

	return hex.EncodeToString(h.Sum(nil))
}
