//! Brute-force bounded enumeration of integer assignments.
//!
//! This module exists for differential testing: on small boxes it enumerates
//! every assignment and checks it against the program, giving a slow but
//! obviously-correct oracle against which the branch-and-bound solver is
//! property-tested.

use crate::bignum::BigInt;
use crate::linear::{Assignment, IntegerProgram};

/// Exhaustively searches assignments with every variable in
/// `[lower, min(upper, box_bound)]` and returns the first satisfying one.
///
/// Returns `None` if no assignment within the box satisfies the program; note
/// this only witnesses infeasibility *within the box*.
pub fn enumerate_feasible<L>(program: &IntegerProgram<L>, box_bound: u64) -> Option<Assignment> {
    let n = program.num_vars();
    let lowers: Vec<i128> = program
        .vars()
        .iter()
        .map(|v| v.lower.to_i64().map(i128::from).unwrap_or(0))
        .collect();
    let uppers: Vec<i128> = program
        .vars()
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let cap = lowers[j].max(0) + box_bound as i128;
            match &v.upper {
                Some(u) => u.to_i64().map(i128::from).unwrap_or(cap).min(cap),
                None => cap,
            }
        })
        .collect();
    if n == 0 {
        let a = Assignment::zeros(0);
        return if program.is_satisfied_by(&a) {
            Some(a)
        } else {
            None
        };
    }
    let mut current: Vec<i128> = lowers.clone();
    loop {
        let assignment = Assignment::new(current.iter().map(|&v| BigInt::from(v as i64)).collect());
        if program.is_satisfied_by(&assignment) {
            return Some(assignment);
        }
        // Increment the mixed-radix counter.
        let mut idx = 0;
        loop {
            if idx == n {
                return None;
            }
            if current[idx] < uppers[idx] {
                current[idx] += 1;
                break;
            }
            current[idx] = lowers[idx];
            idx += 1;
        }
    }
}

/// Counts all satisfying assignments within the box (used in tests to verify
/// the solver does not miss solutions that exist).
pub fn count_feasible<L>(program: &IntegerProgram<L>, box_bound: u64) -> u64 {
    let n = program.num_vars();
    if n == 0 {
        return u64::from(program.is_satisfied_by(&Assignment::zeros(0)));
    }
    let lowers: Vec<i128> = program
        .vars()
        .iter()
        .map(|v| v.lower.to_i64().map(i128::from).unwrap_or(0))
        .collect();
    let uppers: Vec<i128> = program
        .vars()
        .iter()
        .enumerate()
        .map(|(j, v)| {
            let cap = lowers[j].max(0) + box_bound as i128;
            match &v.upper {
                Some(u) => u.to_i64().map(i128::from).unwrap_or(cap).min(cap),
                None => cap,
            }
        })
        .collect();
    let mut current = lowers.clone();
    let mut count = 0u64;
    loop {
        let assignment = Assignment::new(current.iter().map(|&v| BigInt::from(v as i64)).collect());
        if program.is_satisfied_by(&assignment) {
            count += 1;
        }
        let mut idx = 0;
        loop {
            if idx == n {
                return count;
            }
            if current[idx] < uppers[idx] {
                current[idx] += 1;
                break;
            }
            current[idx] = lowers[idx];
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinExpr;
    use crate::rational::Rational;

    #[test]
    fn finds_solution_in_box() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::from_int(2i64));
        p.add_eq(e, Rational::from_int(4i64), "x+2y=4");
        let a = enumerate_feasible(&p, 5).expect("feasible in box");
        assert!(p.is_satisfied_by(&a));
    }

    #[test]
    fn reports_no_solution_in_box() {
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        p.add_ge(LinExpr::var(x), Rational::from_int(100i64), "x>=100");
        assert!(enumerate_feasible(&p, 5).is_none());
    }

    #[test]
    fn counts_solutions() {
        // x + y = 3 with x, y in [0, 3]: 4 solutions.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        let mut e = LinExpr::var(x);
        e.add_term(y, Rational::one());
        p.add_eq(e, Rational::from_int(3i64), "sum");
        assert_eq!(count_feasible(&p, 3), 4);
    }

    #[test]
    fn respects_conditionals() {
        // y <= 0 and x > 0 -> y > 0 forces x = 0; in box [0,2]^2 the solutions
        // are (0,0) only.
        let mut p = IntegerProgram::new();
        let x = p.add_var("x");
        let y = p.add_var("y");
        p.add_le(LinExpr::var(y), Rational::zero(), "y<=0");
        p.add_conditional(x, y, "x→y");
        assert_eq!(count_feasible(&p, 2), 1);
    }
}
