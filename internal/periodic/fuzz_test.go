package periodic

import "testing"

// FuzzUnionLength cross-checks the union against the brute-force bitmap and
// the period-by-period sweep on two or three windows, each with its own
// shape and count — so spans differ and the segment decomposition runs.
func FuzzUnionLength(f *testing.F) {
	f.Add(int64(4), int64(2), int64(1), int64(6), int64(6), int64(3), int64(0), int64(4), int64(0), int64(0), int64(0), int64(0), false)
	f.Add(int64(3), int64(1), int64(2), int64(5), int64(5), int64(5), int64(0), int64(2), int64(2), int64(1), int64(1), int64(9), true)
	f.Add(int64(8), int64(0), int64(0), int64(2), int64(1), int64(1), int64(1), int64(7), int64(8), int64(8), int64(0), int64(1), true)
	f.Add(int64(4), int64(1), int64(3), int64(40), int64(4), int64(1), int64(3), int64(33), int64(2), int64(1), int64(1), int64(3), false)
	f.Fuzz(func(t *testing.T, p1, x1, s1, z1, p2, x2, s2, z2, p3, x3, s3, z3 int64, three bool) {
		mk := func(p, x, s, z int64) Window {
			abs := func(v int64) int64 {
				if v < 0 {
					return -(v + 1)
				}
				return v
			}
			p = abs(p)%12 + 1
			x = abs(x) % (p + 1)
			s = abs(s) % (p - x + 1)
			return Window{Period: p, Active: x, Start: s, Count: abs(z) % 64}
		}
		ws := []Window{mk(p1, x1, s1, z1), mk(p2, x2, s2, z2)}
		if three {
			ws = append(ws, mk(p3, x3, s3, z3))
		}
		for _, w := range ws {
			if w.Validate() != nil {
				t.Fatalf("clamped window invalid: %v", w)
			}
		}
		got, exact := Union(ws)
		if want := bruteUnion(ws); got != want || !exact {
			t.Fatalf("union (%d, %v) != brute %d for %v", got, exact, want, ws)
		}
		if refN, refExact := sweepUnion(ws); got != refN || exact != refExact {
			t.Fatalf("union (%d, %v) != sweep (%d, %v) for %v", got, exact, refN, refExact, ws)
		}
	})
}

// FuzzIntersectLength cross-checks intersection the same way.
func FuzzIntersectLength(f *testing.F) {
	f.Add(int64(4), int64(2), int64(6), int64(3))
	f.Fuzz(func(t *testing.T, p1, x1, p2, x2 int64) {
		norm := func(p, x int64) (int64, int64) {
			if p < 1 {
				p = 1
			}
			p = p%10 + 1
			if x < 0 {
				x = -x
			}
			return p, x % (p + 1)
		}
		p1, x1 = norm(p1, x1)
		p2, x2 = norm(p2, x2)
		span := p1 * p2 * 2
		a := Tail(p1, x1, span/p1)
		b := Tail(p2, x2, span/p2)
		got := IntersectLength(a, b)
		var want int64
		for tm := int64(0); tm < span; tm++ {
			if a.ActiveAt(tm) && b.ActiveAt(tm) {
				want++
			}
		}
		if got != want {
			t.Fatalf("intersect %d != brute %d for %v %v", got, want, a, b)
		}
	})
}
