//! Minimal OpenQASM-2 parser for the dialect produced by [`crate::to_qasm`].
//!
//! Supports one quantum and one classical register, the `qelib1` gate names
//! used by this workspace, `measure`, `barrier`, `reset`, and the
//! single-bit `if (c[i] == 1)` conditional form — enough for round-tripping
//! compiled programs and for importing externally generated benchmarks that
//! stick to this common subset.

use std::error::Error;
use std::fmt;

use crate::{CBitId, Circuit, CircuitError, Gate, QubitId};

/// The widest `qreg` or `creg` the parser accepts, and the bound on
/// classical bit indices in `measure` and `if`. Register storage is
/// allocated up front from the declared width, so wider declarations are
/// rejected (as a located [`QasmParseError::Register`]) before anything is
/// allocated. Four times the largest register any in-repo workload uses
/// (the 4,096-qubit placement benchmark).
pub const MAX_REGISTER_WIDTH: usize = 1 << 14;

/// Errors produced while parsing OpenQASM text.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum QasmParseError {
    /// The line could not be understood.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The program uses a gate the IR does not model.
    UnsupportedGate {
        /// 1-based line number.
        line: usize,
        /// The offending gate name.
        name: String,
    },
    /// A register was re-declared or missing.
    Register {
        /// Description of the problem.
        message: String,
    },
    /// The parsed gate failed IR validation.
    Circuit(CircuitError),
}

impl fmt::Display for QasmParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QasmParseError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            QasmParseError::UnsupportedGate { line, name } => {
                write!(f, "unsupported gate `{name}` on line {line}")
            }
            QasmParseError::Register { message } => write!(f, "register error: {message}"),
            QasmParseError::Circuit(e) => write!(f, "invalid gate: {e}"),
        }
    }
}

impl Error for QasmParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            QasmParseError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CircuitError> for QasmParseError {
    fn from(e: CircuitError) -> Self {
        QasmParseError::Circuit(e)
    }
}

/// One statement of a parsed line, position-independent: everything the
/// splice state machine ([`Assembler`]) needs to grow the circuit in input
/// order. Produced by the pure per-line parser, which may run on worker
/// threads.
#[derive(Clone, Debug)]
enum LineStmt {
    /// `qreg q[n];`
    Qreg(usize),
    /// `creg c[n];`
    Creg(usize),
    /// A gate statement (conditional prefix already applied).
    Gate(Gate),
}

/// All statements of one source line. Statements are `;`-terminated and a
/// line may carry several; the common one-statement case avoids the `Vec`.
#[derive(Clone, Debug)]
enum ParsedLine {
    /// Blank, comment-only, `OPENQASM`, or `include` line.
    Empty,
    One(LineStmt),
    Many(Vec<LineStmt>),
}

/// Parses one raw source line in isolation. Pure: no register state, so
/// arbitrary line subsets parse independently on worker threads; errors
/// carry the global 1-based `line_no`.
fn parse_line(raw: &str, line_no: usize) -> Result<ParsedLine, QasmParseError> {
    let line = strip_comment(raw).trim();
    if line.starts_with("OPENQASM") {
        // Only the 2.x dialect is modeled; refuse other versions loudly
        // instead of silently mis-parsing their statements.
        let version = line
            .strip_prefix("OPENQASM")
            .map(|v| v.trim().trim_end_matches(';').trim())
            .unwrap_or("");
        if !(version.starts_with("2.") || version == "2") {
            return Err(QasmParseError::Syntax {
                line: line_no,
                message: format!("unsupported OpenQASM version `{version}` (expected 2.x)"),
            });
        }
        return Ok(ParsedLine::Empty);
    }
    if line.is_empty() || line.starts_with("include") {
        return Ok(ParsedLine::Empty);
    }
    match line.strip_suffix(';') {
        // Fast path: exactly one `;`-terminated statement (the shape
        // `to_qasm` emits), no per-line allocation.
        Some(body) if !body.contains(';') => {
            let body = body.trim();
            if body.is_empty() {
                return Ok(ParsedLine::Empty);
            }
            Ok(ParsedLine::One(parse_statement(body, line_no)?))
        }
        _ => {
            // Multi-statement (or malformed) line: every statement must be
            // terminated, so text after the final `;` is an error — checked
            // before any statement parses.
            if !line.ends_with(';') {
                return Err(QasmParseError::Syntax {
                    line: line_no,
                    message: "missing `;`".into(),
                });
            }
            let mut stmts = Vec::new();
            for part in line.split(';') {
                let body = part.trim();
                if body.is_empty() {
                    continue;
                }
                stmts.push(parse_statement(body, line_no)?);
            }
            Ok(match stmts.len() {
                0 => ParsedLine::Empty,
                1 => ParsedLine::One(stmts.pop().expect("len checked")),
                _ => ParsedLine::Many(stmts),
            })
        }
    }
}

/// Parses one `;`-stripped statement body.
fn parse_statement(stmt: &str, line_no: usize) -> Result<LineStmt, QasmParseError> {
    if let Some(rest) = stmt.strip_prefix("qreg") {
        let size = parse_decl(rest, 'q').ok_or_else(|| QasmParseError::Register {
            message: format!("bad qreg declaration `{stmt}`"),
        })?;
        return Ok(LineStmt::Qreg(size));
    }
    if let Some(rest) = stmt.strip_prefix("creg") {
        let size = parse_decl(rest, 'c').ok_or_else(|| QasmParseError::Register {
            message: format!("bad creg declaration `{stmt}`"),
        })?;
        return Ok(LineStmt::Creg(size));
    }

    // Conditional prefix: `if (c[i] == 1) <gate>`.
    let (condition, body) = if let Some(rest) = stmt.strip_prefix("if") {
        let rest = rest.trim_start();
        let close = rest.find(')').ok_or_else(|| QasmParseError::Syntax {
            line: line_no,
            message: "unterminated `if (...)`".into(),
        })?;
        let cond_text = &rest[..close];
        let bit = cond_text
            .trim_start_matches(['(', ' '])
            .strip_prefix("c[")
            .and_then(|t| t.split(']').next())
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| QasmParseError::Syntax {
                line: line_no,
                message: format!("bad condition `{cond_text}`"),
            })?;
        if !cond_text.contains("== 1") {
            return Err(QasmParseError::Syntax {
                line: line_no,
                message: "only `== 1` conditions are supported".into(),
            });
        }
        (Some(CBitId::new(bit)), rest[close + 1..].trim())
    } else {
        (None, stmt)
    };

    let gate = parse_gate(body, line_no)?;
    Ok(LineStmt::Gate(match condition {
        Some(c) => gate.with_condition(c),
        None => gate,
    }))
}

/// The sequential splice state machine parsed statements are fed through,
/// in input order: register declarations, the statement-before-qreg check,
/// classical-register growth, and gate validation all live here, so the
/// result cannot depend on *where* lines were parsed.
#[derive(Default)]
struct Assembler {
    circuit: Option<Circuit>,
    num_cbits: usize,
    /// Gate statements still to come, reserved up front so the circuit is
    /// allocated once at its final size.
    gates: usize,
}

impl Assembler {
    fn feed(&mut self, stmt: LineStmt, line_no: usize) -> Result<(), QasmParseError> {
        let too_wide = |what: String| QasmParseError::Register {
            message: format!(
                "{what} on line {line_no} exceeds the register limit of {MAX_REGISTER_WIDTH}"
            ),
        };
        match stmt {
            LineStmt::Qreg(size) if size > MAX_REGISTER_WIDTH => {
                return Err(too_wide(format!("qreg width {size}")));
            }
            LineStmt::Creg(size) if size > MAX_REGISTER_WIDTH => {
                return Err(too_wide(format!("creg width {size}")));
            }
            LineStmt::Qreg(size) => {
                if self.circuit.is_some() {
                    return Err(QasmParseError::Register {
                        message: "multiple qreg declarations".into(),
                    });
                }
                let mut circuit = Circuit::with_cbits(size, self.num_cbits);
                circuit.reserve(self.gates);
                self.circuit = Some(circuit);
            }
            LineStmt::Creg(size) => {
                self.num_cbits = size;
                if let Some(c) = &mut self.circuit {
                    c.ensure_cbits(size);
                }
            }
            LineStmt::Gate(gate) => {
                let circuit = self.circuit.as_mut().ok_or_else(|| QasmParseError::Register {
                    message: "statement before qreg declaration".into(),
                })?;
                for bit in [gate.cbit(), gate.condition()].into_iter().flatten() {
                    if bit.index() >= MAX_REGISTER_WIDTH {
                        return Err(too_wide(format!("classical bit c[{}]", bit.index())));
                    }
                    circuit.ensure_cbits(bit.index() + 1);
                }
                circuit.push(gate)?;
            }
        }
        Ok(())
    }

    fn feed_line(&mut self, parsed: ParsedLine, line_no: usize) -> Result<(), QasmParseError> {
        match parsed {
            ParsedLine::Empty => Ok(()),
            ParsedLine::One(stmt) => self.feed(stmt, line_no),
            ParsedLine::Many(stmts) => stmts.into_iter().try_for_each(|s| self.feed(s, line_no)),
        }
    }

    fn finish(self) -> Result<Circuit, QasmParseError> {
        self.circuit.ok_or(QasmParseError::Register { message: "no qreg declaration".into() })
    }
}

/// Parses OpenQASM-2 text into a [`Circuit`].
///
/// Lines parse through [`crate::par_map`]: large inputs
/// (≥ [`crate::PAR_THRESHOLD`] lines) are split into contiguous chunks
/// whose lines parse independently (`parse_line` is pure), and the
/// per-line statements are spliced through one sequential `Assembler` in
/// input order — so the result, including the first error in input order,
/// is the same as parsing line by line.
///
/// # Errors
///
/// Returns [`QasmParseError`] for unknown syntax, unsupported gates, or
/// register violations.
///
/// ```
/// use dqc_circuit::{from_qasm, to_qasm, Circuit, Gate, QubitId};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new(2);
/// c.push(Gate::h(QubitId::new(0)))?;
/// c.push(Gate::cx(QubitId::new(0), QubitId::new(1)))?;
/// let parsed = from_qasm(&to_qasm(&c))?;
/// assert_eq!(parsed, c);
/// # Ok(())
/// # }
/// ```
pub fn from_qasm(text: &str) -> Result<Circuit, QasmParseError> {
    let lines: Vec<(usize, &str)> = text.lines().enumerate().collect();
    let parsed = crate::par_map(&lines, |&(idx, raw)| parse_line(raw, idx + 1));
    let gates = parsed
        .iter()
        .map(|line| match line {
            Ok(ParsedLine::One(LineStmt::Gate(_))) => 1,
            Ok(ParsedLine::Many(stmts)) => {
                stmts.iter().filter(|s| matches!(s, LineStmt::Gate(_))).count()
            }
            _ => 0,
        })
        .sum();
    let mut asm = Assembler { gates, ..Assembler::default() };
    for (result, &(idx, _)) in parsed.into_iter().zip(&lines) {
        asm.feed_line(result?, idx + 1)?;
    }
    asm.finish()
}

fn strip_comment(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_decl(rest: &str, reg: char) -> Option<usize> {
    let rest = rest.trim();
    let rest = rest.strip_prefix(reg)?;
    let rest = rest.strip_prefix('[')?;
    rest.strip_suffix(']')?.parse().ok()
}

fn parse_operand(token: &str, line: usize) -> Result<usize, QasmParseError> {
    token
        .trim()
        .strip_prefix("q[")
        .and_then(|t| t.strip_suffix(']'))
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| QasmParseError::Syntax {
            line,
            message: format!("bad qubit operand `{token}`"),
        })
}

fn parse_gate(body: &str, line: usize) -> Result<Gate, QasmParseError> {
    // measure q[i] -> c[j]
    if let Some(rest) = body.strip_prefix("measure") {
        let (qpart, cpart) = rest.split_once("->").ok_or_else(|| QasmParseError::Syntax {
            line,
            message: "measure without `->`".into(),
        })?;
        let q = parse_operand(qpart, line)?;
        let c = cpart
            .trim()
            .strip_prefix("c[")
            .and_then(|t| t.strip_suffix(']'))
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| QasmParseError::Syntax {
                line,
                message: format!("bad classical operand `{cpart}`"),
            })?;
        return Ok(Gate::measure(QubitId::new(q), CBitId::new(c)));
    }

    // name(params)? operands — split after the parameter list when present
    // (parameters may contain spaces, e.g. `u3(0.1, 0.2, 0.3) q[3]`).
    let (head, operand_text) = if let Some(open) = body.find('(') {
        let close = body[open..].find(')').map(|i| open + i).ok_or_else(|| {
            QasmParseError::Syntax { line, message: "unterminated parameter list".into() }
        })?;
        (&body[..=close], body[close + 1..].trim())
    } else {
        body.split_once(' ').ok_or_else(|| QasmParseError::Syntax {
            line,
            message: format!("missing operands in `{body}`"),
        })?
    };
    // Every parameter is checked, but no kind takes more than three, so
    // only the first three are kept (with the full count).
    let mut params = [0.0; 3];
    let mut num_params = 0;
    let name = match head.split_once('(') {
        Some((n, ptext)) => {
            let ptext = ptext.strip_suffix(')').ok_or_else(|| QasmParseError::Syntax {
                line,
                message: "unterminated parameter list".into(),
            })?;
            for p in ptext.split(',') {
                // Non-finite angles (`nan`, `inf`, or an overflowing `1e400`)
                // would poison every downstream metric and simulation.
                let value =
                    p.trim().parse::<f64>().ok().filter(|v| v.is_finite()).ok_or_else(|| {
                        QasmParseError::Syntax {
                            line,
                            message: format!("bad parameters `{ptext}` (finite numbers expected)"),
                        }
                    })?;
                if let Some(slot) = params.get_mut(num_params) {
                    *slot = value;
                }
                num_params += 1;
            }
            n
        }
        None => head,
    };
    let params = &params[..num_params.min(3)];

    // Operands, in place up to three; only wide `mcx`/`barrier` statements
    // collect into a vector.
    let mut inline = [QubitId::default(); 3];
    let mut wide = Vec::new();
    let mut arity = 0;
    for t in operand_text.split(',') {
        let qb = QubitId::new(parse_operand(t, line)?);
        match inline.get_mut(arity) {
            Some(slot) => *slot = qb,
            None => {
                if wide.is_empty() {
                    wide.extend_from_slice(&inline);
                }
                wide.push(qb);
            }
        }
        arity += 1;
    }
    let operands: &[QubitId] = if arity <= 3 { &inline[..arity] } else { &wide };
    // The infallible gate constructors assume distinct operands; reject
    // repeats here so malformed input surfaces as an error, not a panic.
    for (i, qb) in operands.iter().enumerate() {
        if operands[..i].contains(qb) {
            return Err(QasmParseError::Circuit(CircuitError::DuplicateOperand { qubit: *qb }));
        }
    }

    let q = |i: usize| operands[i];
    let expect = |n: usize| -> Result<(), QasmParseError> {
        if arity == n {
            Ok(())
        } else {
            Err(QasmParseError::Syntax {
                line,
                message: format!("`{name}` expects {n} operands, got {arity}"),
            })
        }
    };
    let theta = |params: &[f64]| -> Result<f64, QasmParseError> {
        params.first().copied().ok_or_else(|| QasmParseError::Syntax {
            line,
            message: format!("`{name}` needs a parameter"),
        })
    };

    let gate = match name {
        "id" => {
            expect(1)?;
            Gate::i(q(0))
        }
        "h" => {
            expect(1)?;
            Gate::h(q(0))
        }
        "x" => {
            expect(1)?;
            Gate::x(q(0))
        }
        "y" => {
            expect(1)?;
            Gate::y(q(0))
        }
        "z" => {
            expect(1)?;
            Gate::z(q(0))
        }
        "s" => {
            expect(1)?;
            Gate::s(q(0))
        }
        "sdg" => {
            expect(1)?;
            Gate::sdg(q(0))
        }
        "t" => {
            expect(1)?;
            Gate::t(q(0))
        }
        "tdg" => {
            expect(1)?;
            Gate::tdg(q(0))
        }
        "sx" => {
            expect(1)?;
            Gate::sx(q(0))
        }
        "rx" => {
            expect(1)?;
            Gate::rx(theta(params)?, q(0))
        }
        "ry" => {
            expect(1)?;
            Gate::ry(theta(params)?, q(0))
        }
        "rz" => {
            expect(1)?;
            Gate::rz(theta(params)?, q(0))
        }
        "p" | "u1" => {
            expect(1)?;
            Gate::phase(theta(params)?, q(0))
        }
        "u3" | "u" => {
            expect(1)?;
            if num_params != 3 {
                return Err(QasmParseError::Syntax {
                    line,
                    message: "u3 needs three parameters".into(),
                });
            }
            Gate::u3(params[0], params[1], params[2], q(0))
        }
        "cx" | "CX" => {
            expect(2)?;
            Gate::cx(q(0), q(1))
        }
        "cz" => {
            expect(2)?;
            Gate::cz(q(0), q(1))
        }
        "swap" => {
            expect(2)?;
            Gate::swap(q(0), q(1))
        }
        "crz" => {
            expect(2)?;
            Gate::crz(theta(params)?, q(0), q(1))
        }
        "cp" | "cu1" => {
            expect(2)?;
            Gate::cp(theta(params)?, q(0), q(1))
        }
        "rzz" => {
            expect(2)?;
            Gate::rzz(theta(params)?, q(0), q(1))
        }
        "ccx" => {
            expect(3)?;
            Gate::ccx(q(0), q(1), q(2))
        }
        "mcx" => {
            let (controls, target) = operands.split_at(arity - 1);
            Gate::mcx(controls, target[0])
        }
        "reset" => {
            expect(1)?;
            Gate::reset(q(0))
        }
        "barrier" => Gate::barrier(operands),
        other => return Err(QasmParseError::UnsupportedGate { line, name: other.into() }),
    };
    Ok(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_qasm;

    fn q(i: usize) -> QubitId {
        QubitId::new(i)
    }

    /// The line-by-line oracle for [`from_qasm`]: each line parsed and fed
    /// in input order on the calling thread, stopping at the first error.
    fn sequential(text: &str) -> Result<Circuit, QasmParseError> {
        let mut asm = Assembler::default();
        for (idx, raw) in text.lines().enumerate() {
            asm.feed_line(parse_line(raw, idx + 1)?, idx + 1)?;
        }
        asm.finish()
    }

    #[test]
    fn parses_basic_program() {
        let text = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\ncreg c[1];\nh q[0];\ncx q[0], q[1];\nrz(0.5) q[2];\nmeasure q[2] -> c[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_cbits(), 1);
        assert_eq!(c.len(), 4);
        assert_eq!(c.gates()[0], Gate::h(q(0)));
        assert_eq!(c.gates()[1], Gate::cx(q(0), q(1)));
    }

    #[test]
    fn parses_conditionals_and_reset() {
        let text = "qreg q[2];\ncreg c[2];\nreset q[0];\nif (c[1] == 1) x q[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.gates()[0], Gate::reset(q(0)));
        assert_eq!(c.gates()[1], Gate::x(q(0)).with_condition(CBitId::new(1)));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "// header\nqreg q[1];\n\nh q[0]; // flip basis\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn errors_are_located() {
        let err = from_qasm("qreg q[1];\nfrobnicate q[0];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::UnsupportedGate { line: 2, .. }));
        let err = from_qasm("qreg q[1];\nh q[0]\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Syntax { line: 2, .. }));
        let err = from_qasm("h q[0];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Register { .. }));
    }

    #[test]
    fn non_finite_parameters_are_located_syntax_errors() {
        for angle in ["nan", "inf", "-inf", "infinity", "1e400", "0.5, nan, 0.1"] {
            let gate = if angle.contains(',') { "u3" } else { "rz" };
            let text = format!("qreg q[1];\nh q[0];\n{gate}({angle}) q[0];\n");
            let err = from_qasm(&text).unwrap_err();
            assert!(
                matches!(&err, QasmParseError::Syntax { line: 3, message } if message.contains("finite")),
                "{angle}: {err:?}"
            );
        }
        assert!(from_qasm("qreg q[1];\nrz(1e300) q[0];\n").is_ok(), "large finite angles parse");
    }

    #[test]
    fn rejects_unsupported_versions() {
        let err = from_qasm("OPENQASM 3.0;\nqreg q[2];\nh q[0];\n").unwrap_err();
        assert!(
            matches!(&err, QasmParseError::Syntax { line: 1, message } if message.contains("3.0")),
            "got {err:?}"
        );
        // 2.x variants all pass.
        for header in ["OPENQASM 2.0;", "OPENQASM 2.1;", "OPENQASM 2;"] {
            let text = format!("{header}\nqreg q[1];\nh q[0];\n");
            assert!(from_qasm(&text).is_ok(), "rejected {header}");
        }
    }

    #[test]
    fn malformed_headers_are_register_errors() {
        for (text, needle) in [
            ("qreg q[x];\n", "bad qreg declaration"),
            ("qreg p[4];\n", "bad qreg declaration"),
            ("qreg q[2];\nqreg q[3];\n", "multiple qreg"),
            ("qreg q[2];\ncreg c[y];\n", "bad creg declaration"),
            ("creg c[2];\nh q[0];\n", "before qreg"),
            ("", "no qreg"),
        ] {
            let err = from_qasm(text).unwrap_err();
            assert!(
                matches!(&err, QasmParseError::Register { message } if message.contains(needle)),
                "{text:?}: expected register error containing {needle:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn oversized_registers_are_located_register_errors() {
        let limit = MAX_REGISTER_WIDTH;
        let wide = limit + 1;
        for (text, needle) in [
            ("qreg q[3000000000];\n".into(), "qreg width 3000000000 on line 1".into()),
            (format!("qreg q[2];\ncreg c[{wide}];\n"), format!("creg width {wide} on line 2")),
            ("qreg q[2];\ncreg c[3000000000];\n".into(), "on line 2".into()),
            (
                format!("qreg q[2];\nh q[0];\nmeasure q[0] -> c[{limit}];\n"),
                format!("c[{limit}] on line 3"),
            ),
            (format!("qreg q[2];\nif (c[{wide}] == 1) x q[0];\n"), format!("c[{wide}] on line 2")),
        ] {
            let (text, needle): (String, String) = (text, needle);
            for err in [from_qasm(&text).unwrap_err(), sequential(&text).unwrap_err()] {
                assert!(
                    matches!(&err, QasmParseError::Register { message } if message.contains(&needle)),
                    "{text:?}: {err}"
                );
            }
        }
        // The limit itself is admitted.
        let c = from_qasm(&format!("qreg q[{limit}];\nmeasure q[0] -> c[{}];\n", limit - 1));
        let c = c.unwrap();
        assert_eq!((c.num_qubits(), c.num_cbits()), (limit, limit));
    }

    #[test]
    fn out_of_range_operands_are_rejected() {
        // Quantum index past the register.
        let err = from_qasm("qreg q[3];\nh q[5];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Circuit(_)), "got {err:?}");
        // Two-qubit gate with one operand out of range.
        let err = from_qasm("qreg q[3];\ncx q[0], q[3];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Circuit(_)), "got {err:?}");
        // Classical target past the register.
        let err = from_qasm("qreg q[2];\ncreg c[1];\nmeasure q[0] -> c[-1];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Syntax { line: 3, .. }), "got {err:?}");
        // Negative quantum index never parses.
        let err = from_qasm("qreg q[3];\nh q[-1];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Syntax { line: 2, .. }), "got {err:?}");
        // Duplicate operands violate gate validation.
        let err = from_qasm("qreg q[3];\ncx q[1], q[1];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::Circuit(_)), "got {err:?}");
    }

    #[test]
    fn malformed_gates_are_located_syntax_errors() {
        for (text, line) in [
            ("qreg q[2];\nrz q[0];\n", 2),               // missing parameter
            ("qreg q[2];\nrz(abc) q[0];\n", 2),          // non-numeric parameter
            ("qreg q[2];\nrz(0.5 q[0];\n", 2),           // unterminated params
            ("qreg q[2];\nu3(0.1, 0.2) q[0];\n", 2),     // wrong param count
            ("qreg q[2];\ncx q[0];\n", 2),               // wrong arity
            ("qreg q[2];\nmeasure q[0];\n", 2),          // measure without ->
            ("qreg q[2];\nif (c[0] == 0) x q[0];\n", 2), // unsupported condition
            ("qreg q[2];\nif (c[0] == 1 x q[0];\n", 2),  // unterminated if
            ("qreg q[2];\nh;\n", 2),                     // no operands
        ] {
            let err = from_qasm(text).unwrap_err();
            assert!(
                matches!(err, QasmParseError::Syntax { line: l, .. } if l == line),
                "{text:?}: expected syntax error on line {line}, got {err:?}"
            );
        }
        let err = from_qasm("qreg q[2];\nfredkin q[0], q[1];\n").unwrap_err();
        assert!(matches!(err, QasmParseError::UnsupportedGate { line: 2, .. }));
    }

    #[test]
    fn multi_statement_lines_parse_in_order() {
        let text = "qreg q[2]; creg c[1];\nh q[0]; cx q[0], q[1]; measure q[1] -> c[0];\n";
        let c = from_qasm(text).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_cbits(), 1);
        assert_eq!(c.gates()[0], Gate::h(q(0)));
        assert_eq!(c.gates()[1], Gate::cx(q(0), q(1)));
        assert_eq!(c.gates()[2], Gate::measure(q(1), CBitId::new(0)));
        // Stray `;;` and trailing spaces are harmless; an unterminated
        // trailing fragment is not.
        assert!(from_qasm("qreg q[1];; h q[0];  \n").is_ok());
        let err = from_qasm("qreg q[1];\nh q[0]; x q[0]\n").unwrap_err();
        assert!(
            matches!(&err, QasmParseError::Syntax { line: 2, message } if message.contains(';')),
            "got {err:?}"
        );
    }

    /// An adversarial QASM program bigger than the parallel threshold: block
    /// comments, blank lines, inline comments, multi-statement lines, and
    /// conditioned gates land on arbitrary chunk boundaries.
    fn adversarial_qasm(lines: usize) -> String {
        let mut text =
            String::from("OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[6];\ncreg c[2];\n");
        for i in 0..lines {
            match i % 7 {
                0 => text.push_str("// chunk-boundary comment\n"),
                1 => text.push('\n'),
                2 => text.push_str(&format!("h q[{}];\n", i % 6)),
                3 => text.push_str(&format!(
                    "h q[{}]; cx q[{}],q[{}]; t q[1];\n",
                    i % 6,
                    i % 6,
                    (i + 1) % 6
                )),
                4 => text.push_str(&format!(
                    "rz({}) q[{}]; // trailing comment\n",
                    (i % 31) as f64 / 10.0,
                    i % 6
                )),
                5 => text.push_str("measure q[0] -> c[0];\n"),
                _ => text.push_str("if (c[0] == 1) x q[3];\n"),
            }
        }
        text
    }

    /// The chunked parser must agree with the line-by-line oracle on
    /// adversarial input spanning many chunk boundaries.
    #[test]
    fn chunked_parse_matches_sequential_on_adversarial_qasm() {
        let text = adversarial_qasm(2 * crate::PAR_THRESHOLD + 13);
        let parsed = from_qasm(&text).unwrap();
        assert_eq!(parsed, sequential(&text).unwrap());
        assert!(parsed.len() > crate::PAR_THRESHOLD);
    }

    /// The chunked parser must report the *same first error in input
    /// order* as the oracle, even when later chunks contain
    /// earlier-detectable errors.
    #[test]
    fn chunked_parse_matches_sequential_on_errors() {
        for (label, mutate) in [
            ("missing semicolon", "h q[0]\n"),
            ("unsupported gate", "frobnicate q[0];\n"),
            ("bad register", "qreg r[4];\n"),
            ("garbage", "%%%;\n"),
            ("non-finite parameter", "rz(inf) q[0];\n"),
            ("oversized qreg", "qreg q[3000000000];\n"),
            ("oversized creg", "creg c[3000000000];\n"),
        ] {
            let mut text = adversarial_qasm(crate::PAR_THRESHOLD);
            // Inject the fault mid-program, then append a *different*,
            // per-line-detectable fault near the end — the reported error
            // must be the first by input position even though a later
            // chunk's worker sees its own error "first" in wall-clock time.
            text.push_str(mutate);
            for i in 0..256 {
                text.push_str(&format!("h q[{}];\n", i % 6));
            }
            text.push_str("x q[0]\n");
            let parsed = from_qasm(&text);
            assert_eq!(parsed, sequential(&text), "parser and oracle disagreed on {label}");
            assert!(parsed.is_err(), "{label} should not parse");
        }
    }

    #[test]
    fn parallel_parse_reports_first_error_in_input_order() {
        // Two errors, the earlier one in a later chunk position — the
        // parser must report the *first* in input order with its line.
        let mut text = String::from("qreg q[2];\n");
        for _ in 0..(2 * crate::PAR_THRESHOLD) {
            text.push_str("h q[0];\n");
        }
        let bad_line = 100usize;
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[bad_line - 1] = "frobnicate q[0];".into();
        lines.push("h q[0]".into()); // second error, much later
        let text = lines.join("\n");
        let err = from_qasm(&text).unwrap_err();
        assert_eq!(err, sequential(&text).unwrap_err());
        assert!(
            matches!(err, QasmParseError::UnsupportedGate { line, .. } if line == bad_line),
            "got {err:?}"
        );
    }

    /// Chunked == line-by-line parse on generated programs large enough to
    /// take the parallel path, and the round trip is exact.
    #[test]
    fn chunked_parse_matches_sequential_random() {
        for seed in 0..16 {
            let c = crate::unroll::tests::random_circuit(16, crate::PAR_THRESHOLD + 512, seed);
            let text = to_qasm(&c);
            let parsed = from_qasm(&text).unwrap();
            assert_eq!(parsed, sequential(&text).unwrap(), "seed {seed}");
            assert_eq!(parsed, c, "seed {seed}");
        }
    }

    #[test]
    fn round_trips_every_gate_kind() {
        let mut c = Circuit::with_cbits(4, 2);
        c.push(Gate::h(q(0))).unwrap();
        c.push(Gate::sdg(q(1))).unwrap();
        c.push(Gate::rx(0.25, q(2))).unwrap();
        c.push(Gate::u3(0.1, 0.2, 0.3, q(3))).unwrap();
        c.push(Gate::cx(q(0), q(1))).unwrap();
        c.push(Gate::crz(1.5, q(1), q(2))).unwrap();
        c.push(Gate::rzz(0.7, q(2), q(3))).unwrap();
        c.push(Gate::ccx(q(0), q(1), q(2))).unwrap();
        c.push(Gate::mcx(&[q(0), q(1), q(2)], q(3))).unwrap();
        c.push(Gate::barrier(&[q(0), q(1)])).unwrap();
        c.push(Gate::measure(q(0), CBitId::new(0))).unwrap();
        c.push(Gate::z(q(1)).with_condition(CBitId::new(0))).unwrap();
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn round_trips_generated_workload_text() {
        // Structural round-trip of a decomposed benchmark circuit.
        let mut c = Circuit::new(4);
        for g in [
            Gate::h(q(3)),
            Gate::cp(0.785, q(2), q(3)),
            Gate::cp(0.392, q(1), q(3)),
            Gate::swap(q(0), q(3)),
        ] {
            c.push(g).unwrap();
        }
        let parsed = from_qasm(&to_qasm(&c)).unwrap();
        assert_eq!(parsed, c);
    }
}
