//! Wire format of `thresher-serve`: newline-delimited JSON over stdio or
//! TCP, reusing [`obs::json`] so the daemon stays zero-dependency.
//!
//! One request per line:
//!
//! ```json
//! {"id": 1, "method": "analyze", "params": {"program": "app", "report": true}}
//! ```
//!
//! One response per line, correlated by the echoed `id`. Queued requests
//! (`load_program`, `edit`, `analyze`, `query_edge`, `evict`, `metrics`,
//! `slowlog`) run one at a time and answer in arrival order. `health`,
//! `shutdown`, shed requests and malformed lines answer inline at once, so
//! their responses can overtake queued ones:
//!
//! ```json
//! {"id": 1, "ok": {...}}
//! {"id": 2, "err": {"code": "overloaded", "message": "...", "retry_after_ms": 100}}
//! ```
//!
//! Error objects carry a machine-readable `code`, and — when the failure
//! has engine provenance — a `stop_reason` holding a
//! [`StopReason`](symex::StopReason) key (`panic`, `wall-clock`, ...), so
//! a request that died inside the engine is distinguishable from one the
//! daemon itself rejected.

use obs::json::Value;

/// Machine-readable error classes, stable across releases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON, or params were malformed.
    BadRequest,
    /// The named program is not resident (load it first, or it was
    /// evicted).
    NotLoaded,
    /// The pending queue is full; retry after `retry_after_ms`.
    Overloaded,
    /// The client's token bucket is empty; retry after `retry_after_ms`.
    RateLimited,
    /// The daemon is draining (shutdown/EOF/SIGTERM); no new work.
    Draining,
    /// The request's deadline expired (queued too long or ran too long).
    Deadline,
    /// The handler panicked; the panic was contained.
    Panic,
    /// Anything else (I/O failures inside a handler, ...).
    Internal,
}

impl ErrorCode {
    /// The stable kebab-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::NotLoaded => "not-loaded",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::RateLimited => "rate-limited",
            ErrorCode::Draining => "draining",
            ErrorCode::Deadline => "deadline",
            ErrorCode::Panic => "panic",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A structured request failure, rendered into the `err` response object.
#[derive(Clone, Debug)]
pub struct ServeError {
    /// Error class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
    /// Engine provenance: a [`StopReason`](symex::StopReason) key when the
    /// failure came out of (or maps onto) the refutation engine's abort
    /// taxonomy.
    pub stop_reason: Option<&'static str>,
    /// Backoff hint for shed requests.
    pub retry_after_ms: Option<u64>,
    /// Recent queue-wait estimate (window p90) attached to shed
    /// responses, so clients can tell overload (large) from a transient
    /// rate-limit blip (small) without a round trip to `health`.
    pub queue_wait_ms: Option<u64>,
}

impl ServeError {
    /// A malformed request.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError {
            code: ErrorCode::BadRequest,
            message: message.into(),
            stop_reason: None,
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }

    /// A request naming a program that is not resident.
    pub fn not_loaded(name: &str) -> Self {
        ServeError {
            code: ErrorCode::NotLoaded,
            message: format!("program {name:?} is not resident (load_program first)"),
            stop_reason: None,
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }

    /// A shed request (full queue).
    pub fn overloaded(retry_after_ms: u64) -> Self {
        ServeError {
            code: ErrorCode::Overloaded,
            message: "pending queue full".to_owned(),
            stop_reason: None,
            retry_after_ms: Some(retry_after_ms),
            queue_wait_ms: None,
        }
    }

    /// A shed request (client over its token budget).
    pub fn rate_limited(retry_after_ms: u64) -> Self {
        ServeError {
            code: ErrorCode::RateLimited,
            message: "client request budget exhausted".to_owned(),
            stop_reason: None,
            retry_after_ms: Some(retry_after_ms),
            queue_wait_ms: None,
        }
    }

    /// A request rejected because the daemon is draining.
    pub fn draining() -> Self {
        ServeError {
            code: ErrorCode::Draining,
            message: "daemon is draining; no new requests".to_owned(),
            stop_reason: None,
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }

    /// A request whose deadline expired; tagged with the engine's
    /// wall-clock [`StopReason`](symex::StopReason) provenance.
    pub fn deadline(message: impl Into<String>) -> Self {
        ServeError {
            code: ErrorCode::Deadline,
            message: message.into(),
            stop_reason: Some(symex::StopReason::WallClock.key()),
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }

    /// A contained handler panic, with the panic payload as provenance.
    pub fn panic(payload: String) -> Self {
        ServeError {
            code: ErrorCode::Panic,
            stop_reason: Some(symex::StopReason::Panic(payload.clone()).key()),
            message: format!("request handler panicked: {payload}"),
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }

    /// Attaches a recent queue-wait estimate (for shed responses).
    pub fn with_queue_wait(mut self, ms: Option<u64>) -> Self {
        self.queue_wait_ms = ms;
        self
    }

    /// An internal failure.
    pub fn internal(message: impl Into<String>) -> Self {
        ServeError {
            code: ErrorCode::Internal,
            message: message.into(),
            stop_reason: None,
            retry_after_ms: None,
            queue_wait_ms: None,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Correlation id, echoed verbatim into the response (Null if absent).
    pub id: Value,
    /// Method name.
    pub method: String,
    /// Method parameters (an object, or Null).
    pub params: Value,
    /// Token-bucket identity: the request's `client` field when present,
    /// otherwise the transport's identity (`"stdio"`, a peer address).
    pub client: String,
}

/// Parses one request line. `default_client` names the transport the line
/// arrived on.
pub fn parse_request(line: &str, default_client: &str) -> Result<Request, ServeError> {
    let v = obs::json::parse(line)
        .map_err(|e| ServeError::bad_request(format!("invalid JSON: {e:?}")))?;
    let method = v
        .get("method")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::bad_request("missing \"method\""))?
        .to_owned();
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    let params = v.get("params").cloned().unwrap_or(Value::Null);
    let client = v.get("client").and_then(Value::as_str).unwrap_or(default_client).to_owned();
    Ok(Request { id, method, params, client })
}

/// Decodes one `{op, ...}` object into a [`tir::EditOp`]. The JSON shape
/// mirrors the enum: `add_stmt`/`replace_stmt` need `method`, `at`,
/// `text`; `remove_stmt` needs `method`, `at`; `add_method` needs `text`
/// (plus `class` for instance methods); `remove_method` needs `method`.
pub(crate) fn edit_op_from_value(v: &Value) -> Result<tir::EditOp, String> {
    let field = |key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("edit op needs string field {key:?}"))
    };
    let at = || {
        v.get("at")
            .and_then(Value::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| "edit op needs integer field \"at\"".to_owned())
    };
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "edit op needs field \"op\"".to_owned())?;
    match op {
        "add_stmt" => {
            Ok(tir::EditOp::AddStmt { method: field("method")?, at: at()?, text: field("text")? })
        }
        "replace_stmt" => Ok(tir::EditOp::ReplaceStmt {
            method: field("method")?,
            at: at()?,
            text: field("text")?,
        }),
        "remove_stmt" => Ok(tir::EditOp::RemoveStmt { method: field("method")?, at: at()? }),
        "add_method" => Ok(tir::EditOp::AddMethod {
            class: v.get("class").and_then(Value::as_str).map(str::to_owned),
            text: field("text")?,
        }),
        "remove_method" => Ok(tir::EditOp::RemoveMethod { method: field("method")? }),
        other => Err(format!(
            "unknown op {other:?} (add_stmt|replace_stmt|remove_stmt|add_method|remove_method)"
        )),
    }
}

/// Renders an `ok` response line (no trailing newline).
pub fn ok_response(id: &Value, body: Value) -> String {
    Value::Obj(vec![("id".to_owned(), id.clone()), ("ok".to_owned(), body)]).to_json()
}

/// Renders an `err` response line (no trailing newline).
pub fn err_response(id: &Value, e: &ServeError) -> String {
    let mut fields = vec![
        ("code".to_owned(), Value::str(e.code.as_str())),
        ("message".to_owned(), Value::str(e.message.clone())),
    ];
    if let Some(r) = e.stop_reason {
        fields.push(("stop_reason".to_owned(), Value::str(r)));
    }
    if let Some(ms) = e.retry_after_ms {
        fields.push(("retry_after_ms".to_owned(), Value::uint(ms)));
    }
    if let Some(ms) = e.queue_wait_ms {
        fields.push(("queue_wait_ms".to_owned(), Value::uint(ms)));
    }
    Value::Obj(vec![("id".to_owned(), id.clone()), ("err".to_owned(), Value::Obj(fields))])
        .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = parse_request(
            r#"{"id": 7, "method": "health", "params": {"x": 1}, "client": "a"}"#,
            "stdio",
        )
        .unwrap();
        assert_eq!(r.method, "health");
        assert_eq!(r.client, "a");
        assert_eq!(r.params.get("x").and_then(Value::as_u64), Some(1));
        assert_eq!(ok_response(&r.id, Value::Obj(vec![])), r#"{"id":7,"ok":{}}"#);
    }

    #[test]
    fn defaults_and_errors() {
        let r = parse_request(r#"{"method": "health"}"#, "tcp:1.2.3.4").unwrap();
        assert!(matches!(r.id, Value::Null));
        assert_eq!(r.client, "tcp:1.2.3.4");

        let e = parse_request("not json", "stdio").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
        let e = parse_request(r#"{"id": 1}"#, "stdio").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn error_rendering_carries_provenance() {
        let line = err_response(&Value::uint(3), &ServeError::panic("boom".to_owned()));
        let v = obs::json::parse(&line).unwrap();
        let err = v.get("err").unwrap();
        assert_eq!(err.get("code").and_then(Value::as_str), Some("panic"));
        assert_eq!(err.get("stop_reason").and_then(Value::as_str), Some("panic"));

        let line = err_response(&Value::Null, &ServeError::overloaded(100));
        let v = obs::json::parse(&line).unwrap();
        let err = v.get("err").unwrap();
        assert_eq!(err.get("retry_after_ms").and_then(Value::as_u64), Some(100));
        assert!(err.get("queue_wait_ms").is_none());

        let shed = ServeError::overloaded(100).with_queue_wait(Some(250));
        let line = err_response(&Value::Null, &shed);
        let v = obs::json::parse(&line).unwrap();
        let err = v.get("err").unwrap();
        assert_eq!(err.get("queue_wait_ms").and_then(Value::as_u64), Some(250));
    }
}
