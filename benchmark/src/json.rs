//! Untyped JSON over the vendored `serde` value tree: enough to print a
//! result line and to read one back (and `BENCHMARK.json`) in suite mode.

use serde::{Deserialize, Serialize};

pub use serde::Value;

/// Carries a bare [`Value`] through the `Serialize`/`Deserialize` entry
/// points of the vendored `serde_json`.
struct Tree(Value);

impl Serialize for Tree {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl<'de> Deserialize<'de> for Tree {
    fn from_value(v: &Value) -> Result<Tree, serde::Error> {
        Ok(Tree(v.clone()))
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Tree>(text)
        .map(|t| t.0)
        .map_err(|e| e.to_string())
}

pub fn render(v: &Value) -> String {
    serde_json::to_string(&Tree(v.clone())).expect("a value tree always renders")
}

pub fn str(s: &str) -> Value {
    Value::Str(s.to_string())
}

pub fn uint(n: u64) -> Value {
    Value::Num(n.to_string())
}

/// A float with all its digits (the shortest text that round-trips).
/// JSON has no NaN or infinity; they become 0.
pub fn float(x: f64) -> Value {
    Value::Num(if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    })
}

pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Read access to a parsed tree.
pub trait Get {
    fn get(&self, key: &str) -> Option<&Value>;
    #[cfg(test)]
    fn as_str(&self) -> Option<&str>;
    fn as_f64(&self) -> Option<f64>;
    fn as_bool(&self) -> Option<bool>;
    #[cfg(test)]
    fn as_array(&self) -> Option<&[Value]>;
    fn as_object(&self) -> Option<&[(String, Value)]>;
}

impl Get for Value {
    fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    #[cfg(test)]
    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(text) => text.parse().ok(),
            _ => None,
        }
    }

    fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    #[cfg(test)]
    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let line = render(&object([
            ("correct", Value::Bool(true)),
            ("attempted", uint(u64::MAX)),
            (
                "metrics",
                object([(
                    "setup_s",
                    object([("value", float(0.1 + 0.2)), ("unit", str("s"))]),
                )]),
            ),
        ]));
        assert!(!line.contains('\n'));
        let back = parse(&line).unwrap();
        assert_eq!(back.get("correct").and_then(Get::as_bool), Some(true));
        assert_eq!(
            back.get("attempted").and_then(Get::as_f64),
            Some(u64::MAX as f64)
        );
        let setup = back.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Get::as_f64), Some(0.1 + 0.2));
        assert_eq!(setup.get("unit").and_then(Get::as_str), Some("s"));
        assert_eq!(float(f64::NAN), Value::Num("0.0".into()));
    }
}
