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
		"snprintf": {0, 2}, "sendfile": {2}, "accept4": {1, 2},
	}
	for _, name := range libc.Names() {
		f := libc.Lookup(name)
		if f.Args == "" {
			t.Errorf("%s: no scalar mask", name)
		}
		for _, pos := range pointerArgs[name] {
			if f.Scalar(pos) {
				t.Errorf("%s: arg %d is a pointer but marked scalar-comparable", name, pos)
			}
		}
		if f.Out.Size != 0 && f.Scalar(f.Out.Arg) {
			t.Errorf("%s: output arg %d is scalar-compared", name, f.Out.Arg)
		}
	}
}

// TestScalarMismatchProperty: identical argument vectors never mismatch;
// different lengths always do.
func TestScalarMismatchProperty(t *testing.T) {
	names := libc.Names()
	f := func(nameIdx uint8, a, b, c uint64) bool {
		row := libc.Lookup(names[int(nameIdx)%len(names)])
		args := []uint64{a, b, c}
		if bad, _, _ := scalarMismatch(row, args, args); bad {
			return false
		}
		if bad, _, _ := scalarMismatch(row, args, args[:2]); !bad {
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
		f := libc.Lookup(name)
		for i := range f.Args {
			if !f.Scalar(i) {
				continue
			}
			leader := []uint64{10, 20, 30, 40, 50}[:len(f.Args)]
			follower := append([]uint64(nil), leader...)
			follower[i] ^= 0xFF
			if bad, _, _ := scalarMismatch(f, leader, follower); !bad {
				t.Errorf("%s: scalar arg %d change undetected", name, i)
			}
		}
	}
}

// TestScalarMismatchIgnoresPointerChange: flipping a pointer-position
// argument (legitimately different across variants) is never flagged.
func TestScalarMismatchIgnoresPointerChange(t *testing.T) {
	for _, name := range libc.Names() {
		f := libc.Lookup(name)
		for i := range f.Args {
			if f.Scalar(i) {
				continue
			}
			leader := []uint64{10, 20, 30, 40, 50}[:len(f.Args)]
			follower := append([]uint64(nil), leader...)
			follower[i] += 0x2000_0000_0000 // the follower-window delta
			if bad, l, fv := scalarMismatch(f, leader, follower); bad {
				t.Errorf("%s: pointer arg %d flagged (%#x vs %#x)", name, i, l, fv)
			}
		}
	}
}
