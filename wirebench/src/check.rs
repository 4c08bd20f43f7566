//! The comparable content of a response line.
//!
//! Both sides of the correctness check reduce every response to one
//! item string: the wire pass from the server's JSON lines, the direct
//! replay from a JSON object it builds with the fields the server would
//! send. A run's items are compared one by one; each differing item is
//! one failed operation.

use whynot_relation::json::{Json, JsonObj};

/// The fields compared for each response command. Everything else in a
/// response (tenant names, algorithm echo, queue depth) is either fixed
/// by the request or not part of the answer.
fn compared_fields(command: &str) -> &'static [&'static str] {
    match command {
        "create" => &["facts"],
        "enqueue" => &["ticket"],
        "mutate" => &["seq", "inserted", "deleted"],
        "snapshot" => &["seq", "facts"],
        "run" => &["completed"],
        "load" => &["replayed", "seq", "facts"],
        "result" => &[
            "explanations",
            "explanation",
            "difference",
            "foil_mge",
            "ontology_difference",
        ],
        _ => &[],
    }
}

/// The item of one response document: its command and compared fields,
/// or its error kind.
pub fn item(doc: &Json) -> String {
    let command = doc.get("command").and_then(Json::as_str).unwrap_or("?");
    if doc.get("ok") != Some(&Json::Bool(true)) {
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or("?");
        return format!("{command} error:{kind}");
    }
    let mut out = command.to_string();
    for field in compared_fields(command) {
        if let Some(v) = doc.get(field) {
            out.push_str(&format!(" {field}={v}"));
        }
    }
    out
}

/// The item of one wire response line.
pub fn line_item(line: &str) -> String {
    match Json::parse(line) {
        Ok(doc) => item(&doc),
        Err(e) => format!("unparsable response ({e}): {line}"),
    }
}

/// The item a successful response with these fields would give.
pub fn ok_item(command: &str, fields: Vec<(&str, Json)>) -> String {
    let mut obj = JsonObj::new().field("ok", true).field("command", command);
    for (k, v) in fields {
        obj = obj.field(k, v);
    }
    item(&obj.build())
}

/// The item an error response of this kind would give.
pub fn error_item(command: &str, kind: &str) -> String {
    format!("{command} error:{kind}")
}

/// A 64-bit digest of an item, so later passes are compared without
/// keeping their strings.
pub fn digest(item: &str) -> u64 {
    whynot_relation::wire::checksum(item.as_bytes())
}
