package core

import (
	"testing"
	"testing/quick"

	"smvx/internal/libc"
)

// TestScalarMaskCoverage: every simulated libc call has a scalar mask, no
// mask marks a known pointer position as comparable, and no emulated
// output argument is scalar-compared: each follower passes its own
// window's buffer.
func TestScalarMaskCoverage(t *testing.T) {
	// Positions that carry pointers per call signature.
	pointerArgs := map[string][]int{
		"open": {0}, "mkdir": {0}, "stat": {0, 1}, "fstat": {1},
		"read": {1}, "recv": {1}, "write": {1}, "send": {1}, "writev": {1},
		"gettimeofday": {0}, "time": {0}, "localtime_r": {0, 1},
		"getsockopt": {2}, "ioctl": {2}, "epoll_ctl": {3},
		"epoll_wait": {1}, "epoll_pwait": {1},
		"free": {0}, "realloc": {0}, "memcpy": {0, 1}, "memset": {0},
		"strlen": {0}, "strcmp": {0, 1}, "strncmp": {0, 1}, "atoi": {0},
		"snprintf": {0, 2}, "sendfile": {2},
	}
	for _, name := range libc.Names() {
		mask := ScalarArgMask(name)
		for _, pos := range pointerArgs[name] {
			if pos < len(mask) && mask[pos] {
				t.Errorf("%s: arg %d is a pointer but marked scalar-comparable", name, pos)
			}
		}
	}
	for name := range emuOutputs {
		mask := ScalarArgMask(name)
		arg, ok := OutputArg(name)
		if !ok || mask == nil {
			t.Errorf("%s: emulated, but OutputArg = %d, %v and mask %v", name, arg, ok, mask)
			continue
		}
		if arg < len(mask) && mask[arg] {
			t.Errorf("%s: output arg %d is scalar-compared", name, arg)
		}
	}
}

// TestScalarMismatchProperty: identical argument vectors never mismatch;
// different lengths always do.
func TestScalarMismatchProperty(t *testing.T) {
	names := libc.Names()
	f := func(nameIdx uint8, a, b, c uint64) bool {
		name := names[int(nameIdx)%len(names)]
		args := []uint64{a, b, c}
		if bad, _, _ := scalarMismatch(name, args, args); bad {
			return false
		}
		if bad, _, _ := scalarMismatch(name, args, args[:2]); !bad {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestScalarMismatchDetectsScalarChange: flipping a scalar-masked argument
// is always flagged.
func TestScalarMismatchDetectsScalarChange(t *testing.T) {
	for _, name := range libc.Names() {
		mask := ScalarArgMask(name)
		for i, isScalar := range mask {
			if !isScalar {
				continue
			}
			leader := []uint64{10, 20, 30, 40, 50}[:len(mask)]
			follower := append([]uint64(nil), leader...)
			follower[i] ^= 0xFF
			if bad, _, _ := scalarMismatch(name, leader, follower); !bad {
				t.Errorf("%s: scalar arg %d change undetected", name, i)
			}
		}
	}
}

// TestScalarMismatchIgnoresPointerChange: flipping a pointer-position
// argument (legitimately different across variants) is never flagged.
func TestScalarMismatchIgnoresPointerChange(t *testing.T) {
	for _, name := range libc.Names() {
		mask := ScalarArgMask(name)
		for i, isScalar := range mask {
			if isScalar {
				continue
			}
			leader := []uint64{10, 20, 30, 40, 50}[:len(mask)]
			follower := append([]uint64(nil), leader...)
			follower[i] += 0x2000_0000_0000 // the follower-window delta
			if bad, l, f := scalarMismatch(name, leader, follower); bad {
				t.Errorf("%s: pointer arg %d flagged (%#x vs %#x)", name, i, l, f)
			}
		}
	}
}
