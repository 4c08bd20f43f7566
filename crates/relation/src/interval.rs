//! Order intervals over [`Value`], the workhorse behind comparisons
//! (`x op c`), selections (`σ_{A op c}`), and the constrained labelled nulls
//! used by the chase-based `⊑S` deciders.
//!
//! A conjunction of comparisons against constants on a single variable or
//! attribute denotes exactly an interval of the dense order, so interval
//! algebra (intersection, entailment, emptiness, sampling) is all the
//! constraint reasoning the paper's fragment ever needs — the language has
//! no variable-variable comparisons (§2).

use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// One end of an [`Interval`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Bound {
    /// Unbounded (`-∞` as a lower bound, `+∞` as an upper bound).
    Unbounded,
    /// Inclusive bound.
    Incl(Value),
    /// Exclusive bound.
    Excl(Value),
}

impl Bound {
    fn value(&self) -> Option<&Value> {
        match self {
            Bound::Unbounded => None,
            Bound::Incl(v) | Bound::Excl(v) => Some(v),
        }
    }
}

/// A (possibly empty, possibly unbounded) interval of the value order.
///
/// Emptiness and sampling are decided under the paper's density assumption;
/// see the `value` module docs for how the string segment is
/// handled.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Interval {
    lo: Bound,
    hi: Bound,
}

impl Interval {
    /// The full interval `(-∞, +∞)`.
    pub fn full() -> Self {
        Interval {
            lo: Bound::Unbounded,
            hi: Bound::Unbounded,
        }
    }

    /// The single-point interval `[v, v]`.
    pub fn point(v: Value) -> Self {
        Interval {
            lo: Bound::Incl(v.clone()),
            hi: Bound::Incl(v),
        }
    }

    /// An interval with explicit bounds.
    pub fn new(lo: Bound, hi: Bound) -> Self {
        Interval { lo, hi }
    }

    /// `[lo, hi]`, both inclusive.
    pub fn closed(lo: Value, hi: Value) -> Self {
        Interval {
            lo: Bound::Incl(lo),
            hi: Bound::Incl(hi),
        }
    }

    /// The interval denoted by the comparison `x op c`.
    pub fn from_comparison(op: crate::query::CmpOp, c: Value) -> Self {
        use crate::query::CmpOp::*;
        match op {
            Eq => Interval::point(c),
            Lt => Interval {
                lo: Bound::Unbounded,
                hi: Bound::Excl(c),
            },
            Le => Interval {
                lo: Bound::Unbounded,
                hi: Bound::Incl(c),
            },
            Gt => Interval {
                lo: Bound::Excl(c),
                hi: Bound::Unbounded,
            },
            Ge => Interval {
                lo: Bound::Incl(c),
                hi: Bound::Unbounded,
            },
        }
    }

    /// Lower bound.
    pub fn lo(&self) -> &Bound {
        &self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> &Bound {
        &self.hi
    }

    /// Whether `v` lies in the interval.
    pub fn contains(&self, v: &Value) -> bool {
        let lo_ok = match &self.lo {
            Bound::Unbounded => true,
            Bound::Incl(l) => l <= v,
            Bound::Excl(l) => l < v,
        };
        let hi_ok = match &self.hi {
            Bound::Unbounded => true,
            Bound::Incl(h) => v <= h,
            Bound::Excl(h) => v < h,
        };
        lo_ok && hi_ok
    }

    /// The intersection of two intervals.
    pub fn intersect(&self, other: &Interval) -> Interval {
        Interval {
            lo: tighter_lo(&self.lo, &other.lo).clone(),
            hi: tighter_hi(&self.hi, &other.hi).clone(),
        }
    }

    /// `self ∖ other` as at most two non-empty intervals: the part of
    /// `self` below `other`'s lower bound, then the part above its upper
    /// bound.
    pub fn minus(&self, other: &Interval) -> Vec<Interval> {
        // The complement of a bound, as the facing bound of a piece.
        let flip = |b: &Bound| match b {
            Bound::Unbounded => None,
            Bound::Incl(v) => Some(Bound::Excl(v.clone())),
            Bound::Excl(v) => Some(Bound::Incl(v.clone())),
        };
        let below = flip(&other.lo).map(|hi| Interval::new(self.lo.clone(), hi));
        let above = flip(&other.hi).map(|lo| Interval::new(lo, self.hi.clone()));
        [below, above]
            .into_iter()
            .flatten()
            .map(|piece| piece.intersect(self))
            .filter(|piece| !piece.is_empty())
            .collect()
    }

    /// Whether the interval is empty **under the density assumption**:
    /// `(a, b)` with `a < b` is considered non-empty.
    pub fn is_empty(&self) -> bool {
        let (l, h) = match (self.lo.value(), self.hi.value()) {
            (Some(l), Some(h)) => (l, h),
            _ => return false,
        };
        match l.cmp(h) {
            Ordering::Less => false,
            Ordering::Greater => true,
            Ordering::Equal => {
                !(matches!(self.lo, Bound::Incl(_)) && matches!(self.hi, Bound::Incl(_)))
            }
        }
    }

    /// If the interval is the single point `[v, v]`, returns `v`.
    pub fn as_point(&self) -> Option<&Value> {
        match (&self.lo, &self.hi) {
            (Bound::Incl(l), Bound::Incl(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Whether every value of `self` lies in `other` (interval entailment).
    pub fn subset_of(&self, other: &Interval) -> bool {
        if self.is_empty() {
            return true;
        }
        let lo_ok = match (&other.lo, &self.lo) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Incl(o), Bound::Incl(s)) | (Bound::Incl(o), Bound::Excl(s)) => o <= s,
            (Bound::Excl(o), Bound::Excl(s)) => o <= s,
            (Bound::Excl(o), Bound::Incl(s)) => o < s,
        };
        let hi_ok = match (&other.hi, &self.hi) {
            (Bound::Unbounded, _) => true,
            (_, Bound::Unbounded) => false,
            (Bound::Incl(o), Bound::Incl(s)) | (Bound::Incl(o), Bound::Excl(s)) => o >= s,
            (Bound::Excl(o), Bound::Excl(s)) => o >= s,
            (Bound::Excl(o), Bound::Incl(s)) => o > s,
        };
        lo_ok && hi_ok
    }

    /// Produces a value inside the interval, if one can be synthesized.
    ///
    /// Used to instantiate constrained labelled nulls when building
    /// counterexample instances. Returns `None` only for (near-)empty string
    /// gaps; numeric intervals always sample.
    pub fn sample(&self) -> Option<Value> {
        if self.is_empty() {
            return None;
        }
        match (&self.lo, &self.hi) {
            (Bound::Unbounded, Bound::Unbounded) => Some(Value::int(0)),
            (Bound::Incl(l), _) if self.contains(l) => Some(l.clone()),
            (_, Bound::Incl(h)) if self.contains(h) => Some(h.clone()),
            (Bound::Excl(l), Bound::Unbounded) => Some(l.just_above()),
            (Bound::Unbounded, Bound::Excl(h)) => Some(h.just_below()),
            (Bound::Excl(l), Bound::Excl(h)) => l.midpoint(h),
            _ => None,
        }
    }

    /// Produces a value inside the interval that differs from every value in
    /// `avoid`. Used for "generic" completions where distinct nulls must
    /// receive distinct values.
    pub fn sample_avoiding(&self, avoid: &[Value]) -> Option<Value> {
        // Strategy: start from a sample and walk strictly upward through the
        // interval, stepping past collisions; dense numeric segments always
        // make room, string segments are best-effort.
        let mut cand = self.sample()?;
        for _ in 0..=avoid.len() {
            if !avoid.contains(&cand) {
                return Some(cand);
            }
            // Try to move to a fresh value that is still inside.
            let next = match &self.hi {
                Bound::Unbounded => cand.just_above(),
                Bound::Incl(h) | Bound::Excl(h) => cand.midpoint(h)?,
            };
            if !self.contains(&next) || next == cand {
                return None;
            }
            cand = next;
        }
        None
    }
}

fn tighter_lo<'a>(a: &'a Bound, b: &'a Bound) -> &'a Bound {
    match (a, b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Incl(x) | Bound::Excl(x), Bound::Incl(y) | Bound::Excl(y)) => match x.cmp(y) {
            Ordering::Greater => a,
            Ordering::Less => b,
            Ordering::Equal => {
                if matches!(a, Bound::Excl(_)) {
                    a
                } else {
                    b
                }
            }
        },
    }
}

fn tighter_hi<'a>(a: &'a Bound, b: &'a Bound) -> &'a Bound {
    match (a, b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Incl(x) | Bound::Excl(x), Bound::Incl(y) | Bound::Excl(y)) => match x.cmp(y) {
            Ordering::Less => a,
            Ordering::Greater => b,
            Ordering::Equal => {
                if matches!(a, Bound::Excl(_)) {
                    a
                } else {
                    b
                }
            }
        },
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.lo {
            Bound::Unbounded => write!(f, "(-∞, ")?,
            Bound::Incl(v) => write!(f, "[{v}, ")?,
            Bound::Excl(v) => write!(f, "({v}, ")?,
        }
        match &self.hi {
            Bound::Unbounded => write!(f, "+∞)"),
            Bound::Incl(v) => write!(f, "{v}]"),
            Bound::Excl(v) => write!(f, "{v})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CmpOp;

    fn iv(op: CmpOp, c: i64) -> Interval {
        Interval::from_comparison(op, Value::int(c))
    }

    #[test]
    fn comparison_intervals_contain_the_right_values() {
        assert!(iv(CmpOp::Lt, 5).contains(&Value::int(4)));
        assert!(!iv(CmpOp::Lt, 5).contains(&Value::int(5)));
        assert!(iv(CmpOp::Le, 5).contains(&Value::int(5)));
        assert!(iv(CmpOp::Gt, 5).contains(&Value::int(6)));
        assert!(iv(CmpOp::Ge, 5).contains(&Value::int(5)));
        assert!(iv(CmpOp::Eq, 5).contains(&Value::int(5)));
        assert!(!iv(CmpOp::Eq, 5).contains(&Value::int(6)));
    }

    #[test]
    fn intersection_takes_tighter_bounds() {
        let i = iv(CmpOp::Ge, 3).intersect(&iv(CmpOp::Lt, 7));
        assert!(i.contains(&Value::int(3)));
        assert!(i.contains(&Value::int(6)));
        assert!(!i.contains(&Value::int(7)));
    }

    #[test]
    fn exclusive_beats_inclusive_at_equal_endpoint() {
        let i = iv(CmpOp::Ge, 3).intersect(&iv(CmpOp::Gt, 3));
        assert!(!i.contains(&Value::int(3)));
    }

    #[test]
    fn emptiness_under_density() {
        assert!(iv(CmpOp::Lt, 3).intersect(&iv(CmpOp::Gt, 5)).is_empty());
        assert!(iv(CmpOp::Lt, 3).intersect(&iv(CmpOp::Ge, 3)).is_empty());
        // (3, 4) is non-empty in a dense order.
        assert!(!iv(CmpOp::Gt, 3).intersect(&iv(CmpOp::Lt, 4)).is_empty());
        assert!(!iv(CmpOp::Eq, 3).is_empty());
    }

    #[test]
    fn difference_keeps_the_pieces_outside_the_removed_interval() {
        let int = Value::int;
        let a = Interval::closed(int(0), int(10));
        // Inclusive removed bounds leave exclusive ends behind.
        assert_eq!(
            a.minus(&Interval::closed(int(3), int(5))),
            vec![
                Interval::new(Bound::Incl(int(0)), Bound::Excl(int(3))),
                Interval::new(Bound::Excl(int(5)), Bound::Incl(int(10))),
            ]
        );
        // Exclusive removed bounds keep their endpoints.
        let open = iv(CmpOp::Gt, 3).intersect(&iv(CmpOp::Lt, 5));
        assert_eq!(
            a.minus(&open),
            vec![
                Interval::closed(int(0), int(3)),
                Interval::closed(int(5), int(10)),
            ]
        );
        // An unbounded side of the removed interval leaves no piece there.
        assert_eq!(
            a.minus(&iv(CmpOp::Ge, 3)),
            vec![Interval::new(Bound::Incl(int(0)), Bound::Excl(int(3)))]
        );
        assert_eq!(
            Interval::full().minus(&iv(CmpOp::Lt, 3)),
            vec![iv(CmpOp::Ge, 3)]
        );
        // Removing an interval disjoint from `a` leaves `a` whole.
        assert_eq!(a.minus(&iv(CmpOp::Gt, 10)), vec![a.clone()]);
        // Removing a superset leaves nothing.
        assert!(a.minus(&Interval::full()).is_empty());
        assert!(a.minus(&iv(CmpOp::Ge, 0)).is_empty());
        assert!(iv(CmpOp::Eq, 4).minus(&iv(CmpOp::Eq, 4)).is_empty());
    }

    #[test]
    fn point_detection() {
        let p = iv(CmpOp::Ge, 3).intersect(&iv(CmpOp::Le, 3));
        assert_eq!(p.as_point(), Some(&Value::int(3)));
        assert_eq!(iv(CmpOp::Ge, 3).as_point(), None);
    }

    #[test]
    fn subset_entailment() {
        assert!(iv(CmpOp::Eq, 4).subset_of(&iv(CmpOp::Ge, 3)));
        assert!(iv(CmpOp::Gt, 3).subset_of(&iv(CmpOp::Ge, 3)));
        assert!(!iv(CmpOp::Ge, 3).subset_of(&iv(CmpOp::Gt, 3)));
        assert!(Interval::closed(Value::int(2), Value::int(3))
            .subset_of(&Interval::closed(Value::int(1), Value::int(4))));
        // The empty interval is a subset of everything.
        let empty = iv(CmpOp::Lt, 0).intersect(&iv(CmpOp::Gt, 0));
        assert!(empty.subset_of(&iv(CmpOp::Eq, 17)));
        assert!(!iv(CmpOp::Ge, 0).subset_of(&empty));
    }

    #[test]
    fn sampling_lands_inside() {
        for i in [
            Interval::full(),
            iv(CmpOp::Lt, 5),
            iv(CmpOp::Gt, 5),
            iv(CmpOp::Eq, 5),
            iv(CmpOp::Gt, 3).intersect(&iv(CmpOp::Lt, 4)),
            Interval::closed(Value::int(2), Value::int(2)),
        ] {
            let v = i.sample().expect("non-empty interval must sample");
            assert!(i.contains(&v), "{v:?} not in {i}");
        }
        let empty = iv(CmpOp::Lt, 0).intersect(&iv(CmpOp::Gt, 0));
        assert_eq!(empty.sample(), None);
    }

    #[test]
    fn sample_avoiding_picks_fresh_values() {
        let i = iv(CmpOp::Gt, 0).intersect(&iv(CmpOp::Lt, 1));
        let a = i.sample().unwrap();
        let b = i.sample_avoiding(std::slice::from_ref(&a)).unwrap();
        assert_ne!(a, b);
        assert!(i.contains(&b));

        let point = iv(CmpOp::Eq, 5);
        assert_eq!(point.sample_avoiding(&[Value::int(5)]), None);
    }

    #[test]
    fn display_renders_standard_notation() {
        assert_eq!(iv(CmpOp::Ge, 3).to_string(), "[3, +∞)");
        assert_eq!(
            iv(CmpOp::Gt, 3).intersect(&iv(CmpOp::Le, 9)).to_string(),
            "(3, 9]"
        );
    }
}
