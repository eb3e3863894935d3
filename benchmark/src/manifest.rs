//! Reads `BENCHMARK.json`, the declaration the benchmark is held to: the
//! workload and metric names `--smoke` checks its own output against, and
//! the regression bounds `--sets` prints deviations beside.
//!
//! No JSON crate resolves offline, so this is a small recursive-descent
//! parser for the subset that file uses (no `\u` escapes).

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    out.push(match esc {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => esc,
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    });
                }
                _ => out.push(b),
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.bytes.get(self.pos).ok_or("unexpected end of input")? {
            b'{' => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    map.insert(key, self.value()?);
                    self.ws();
                    if self.eat(b',').is_err() {
                        self.eat(b'}')?;
                        return Ok(Json::Obj(map));
                    }
                }
            }
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_err() {
                        self.eat(b']')?;
                        return Ok(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad value at byte {start}"))
            }
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos == p.bytes.len() {
        Ok(v)
    } else {
        Err(format!("trailing input at byte {}", p.pos))
    }
}

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    /// `"higher"` or `"lower"`.
    pub better: String,
    /// `None` for per-layer metrics, which carry no bound.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark checks itself against.
#[derive(Debug, Clone)]
pub struct Manifest {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

impl Manifest {
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Self::from_json(&parse(&text).map_err(|e| format!("{path}: {e}"))?)
    }

    pub fn from_json(root: &Json) -> Result<Self, String> {
        let list = |key: &str| {
            root.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no \"{key}\" array"))
        };
        let name = |j: &Json| {
            j.get("name")
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or("BENCHMARK.json: entry without a name".to_string())
        };
        let declared = |j: &Json| {
            Ok::<_, String>(Declared {
                name: name(j)?,
                unit: j
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                better: j
                    .get("better")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                bound: j.get("bound").and_then(Json::as_f64),
            })
        };
        Ok(Self {
            workloads: list("workloads")?
                .iter()
                .map(name)
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(declared)
                .collect::<Result<_, _>>()?,
        })
    }

    pub fn bound(&self, metric: &str) -> Option<f64> {
        self.end_to_end.iter().find(|d| d.name == metric)?.bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_contract_example() {
        let text = r#"{
          "command": ["python3", "perfbench/run.py"],
          "paths": ["perfbench"],
          "run_seconds": 10,
          "workloads": [{"name": "hit", "why": "repeated \"keys\""}, {"name": "miss", "why": "b"}],
          "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
          "per_layer": [{"name": "cache_hits", "unit": "count", "better": "higher"}]
        }"#;
        let m = Manifest::from_json(&parse(text).unwrap()).unwrap();
        assert_eq!(m.workloads, ["hit", "miss"]);
        assert_eq!(m.bound("latency_ms"), Some(0.1));
        assert_eq!(m.per_layer[0].bound, None);
        assert_eq!(
            (m.per_layer[0].unit.as_str(), m.per_layer[0].better.as_str()),
            ("count", "higher")
        );
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\": [1, 2").is_err());
        assert!(parse("{} x").is_err());
        assert!(Manifest::from_json(&parse("{\"workloads\": []}").unwrap()).is_err());
    }
}
