//! Smoke-size self-test: every workload, traced and untraced, on tiny
//! inputs. Each run must pass its own checks and print every metric that
//! `BENCHMARK.json` names, with the unit it names.

use std::collections::BTreeMap;
use std::process::Command;

#[test]
fn every_workload_prints_every_named_metric_with_its_unit() {
    let spec_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse(&std::fs::read_to_string(spec_path).expect("BENCHMARK.json is readable"));
    let names = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .array()
            .iter()
            .map(|m| (m.get("name").string(), m.get("unit").string()))
            .collect()
    };
    let (end_to_end, per_layer) = (names("end_to_end"), names("per_layer"));
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    for workload in spec.get("workloads").array() {
        let workload = workload.get("name").string();
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", &workload, "--seed", "7", "--seconds", "0.3"])
                .args(["--trace", trace, "--smoke"])
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace={trace} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse(last);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{workload}: {last}"
            );
            assert_eq!(result.get("failed"), &Json::Num(0.0), "{workload}: {last}");
            let metrics = match result.get("metrics") {
                Json::Obj(m) => m,
                other => panic!("metrics is not an object: {other:?}"),
            };
            assert_eq!(
                metrics.len(),
                expected.len(),
                "{workload} trace={trace}: {last}"
            );
            for (name, unit) in expected {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} trace={trace} lacks {name}"));
                assert_eq!(&m.get("unit").string(), unit, "{workload}: unit of {name}");
                assert!(matches!(m.get("value"), Json::Num(_)), "{workload}: {name}");
            }
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--workload", "kron-solve"][..],
        &["--workload", "kron-solve", "--seed", "1", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn array(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn string(&self) -> String {
        match self {
            Json::Str(s) => s.clone(),
            other => panic!("{other:?} is not a string"),
        }
    }
}

fn parse(text: &str) -> Json {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
    v
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let key = self.string();
                    self.eat(b':');
                    m.insert(key, self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii number");
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()), "expected {w}");
        self.i += w.len();
        v
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        while self.s[self.i] != b'"' {
            if self.s[self.i] == b'\\' {
                self.i += 1;
            }
            out.push(self.s[self.i]);
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(out).expect("utf-8 string")
    }
}
