//! The trace event model and its JSON-lines wire format.
//!
//! One event is one line. The schema is flat on purpose — a handful of
//! fixed keys plus a `kind` discriminator — so the parser below stays a
//! few dozen lines and the files stream through `grep`/`jq` naturally:
//!
//! ```text
//! {"rank":0,"worker":0,"t_mono_ns":1203,"t_virt":0.0014,"kind":"span_begin","phase":"conv"}
//! {"rank":0,"worker":0,"t_mono_ns":2311,"t_virt":null,"kind":"send","peer":1,"bytes":4096}
//! {"rank":0,"worker":2,"t_mono_ns":2410,"t_virt":null,"kind":"task","index":5,"dur_ns":8000}
//! {"rank":0,"worker":0,"t_mono_ns":3555,"t_virt":0.0021,"kind":"collective","op":"all_to_all","bytes":16384}
//! {"rank":0,"worker":0,"t_mono_ns":3601,"t_virt":null,"kind":"counter","name":"flops","value":1.5e9}
//! ```
//!
//! `t_mono_ns` is nanoseconds on the recording rank's monotonic clock
//! (rank-local — only the virtual clock is comparable across ranks);
//! `t_virt` is the rank's virtual-clock reading in seconds, `null` where
//! the recording site has no clock (single-process runs, pool tasks).

use std::borrow::Cow;

/// Which collective a [`EventKind::Collective`] event participated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    /// Pure synchronization.
    Barrier,
    /// All-to-all gather (allreduce is built on this).
    AllGather,
    /// Equal-block all-to-all, whole or segment by segment.
    AllToAll,
    /// Paired neighbor exchange (synchronizing, like the collectives).
    SendRecv,
}

impl CollectiveOp {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveOp::Barrier => "barrier",
            CollectiveOp::AllGather => "all_gather",
            CollectiveOp::AllToAll => "all_to_all",
            CollectiveOp::SendRecv => "sendrecv",
        }
    }

    /// Inverse of [`CollectiveOp::name`].
    pub fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "barrier" => CollectiveOp::Barrier,
            "all_gather" => CollectiveOp::AllGather,
            "all_to_all" => CollectiveOp::AllToAll,
            "sendrecv" => CollectiveOp::SendRecv,
            _ => return None,
        })
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A phase span opened (phases nest LIFO per rank).
    SpanBegin {
        /// Phase name (`&'static` when recorded; owned after parsing).
        phase: Cow<'static, str>,
    },
    /// The innermost open span of this phase closed.
    SpanEnd {
        /// Phase name.
        phase: Cow<'static, str>,
    },
    /// Payload handed to the network, destined for `peer`.
    Send {
        /// Destination rank.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// Payload received from `peer`.
    Recv {
        /// Source rank.
        peer: u32,
        /// Payload bytes.
        bytes: u64,
    },
    /// This rank completed a synchronizing collective. `t_virt` on the
    /// enclosing event is the clock *after* the synchronization, which is
    /// what the validator compares across ranks at barriers.
    Collective {
        /// The operation.
        op: CollectiveOp,
        /// Aggregate payload bytes the fabric model was charged for.
        bytes: u64,
    },
    /// One task of a `ThreadPool::run` call retired.
    Task {
        /// Task index within the parallel-for.
        index: u32,
        /// Task wall time in nanoseconds.
        dur_ns: u64,
    },
    /// A free-form named quantity (flops, element counts, …).
    Counter {
        /// Counter name.
        name: Cow<'static, str>,
        /// Value.
        value: f64,
    },
    /// This rank entered job epoch `epoch` after a fault: either it is a
    /// respawned incarnation reclaiming a dead rank's slot, or a survivor
    /// that re-wired its mesh to admit one. Recovery replays from
    /// checkpoints, so all traffic recorded after this marker belongs to
    /// the clean replay; the validator requires every rank to agree on
    /// the epoch sequence, exactly like collectives.
    Rejoin {
        /// The new job epoch (the initial bootstrap is epoch 0).
        epoch: u64,
    },
}

/// One structured trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Recording rank.
    pub rank: u32,
    /// Worker within the rank (0 = the rank's main thread).
    pub worker: u32,
    /// Rank-local monotonic nanoseconds since the recorder was created.
    pub t_mono_ns: u64,
    /// Virtual-clock seconds at record time, when the site has a clock.
    pub t_virt: Option<f64>,
    /// Payload.
    pub kind: EventKind,
}

impl Event {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"rank\":{},\"worker\":{},\"t_mono_ns\":{},\"t_virt\":",
            self.rank, self.worker, self.t_mono_ns
        );
        match self.t_virt {
            Some(v) => {
                let _ = write!(s, "{v}");
            }
            None => s.push_str("null"),
        }
        match &self.kind {
            EventKind::SpanBegin { phase } => {
                let _ = write!(s, ",\"kind\":\"span_begin\",\"phase\":\"{phase}\"");
            }
            EventKind::SpanEnd { phase } => {
                let _ = write!(s, ",\"kind\":\"span_end\",\"phase\":\"{phase}\"");
            }
            EventKind::Send { peer, bytes } => {
                let _ = write!(s, ",\"kind\":\"send\",\"peer\":{peer},\"bytes\":{bytes}");
            }
            EventKind::Recv { peer, bytes } => {
                let _ = write!(s, ",\"kind\":\"recv\",\"peer\":{peer},\"bytes\":{bytes}");
            }
            EventKind::Collective { op, bytes } => {
                let _ = write!(
                    s,
                    ",\"kind\":\"collective\",\"op\":\"{}\",\"bytes\":{bytes}",
                    op.name()
                );
            }
            EventKind::Task { index, dur_ns } => {
                let _ = write!(s, ",\"kind\":\"task\",\"index\":{index},\"dur_ns\":{dur_ns}");
            }
            EventKind::Counter { name, value } => {
                let _ = write!(s, ",\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{value}");
            }
            EventKind::Rejoin { epoch } => {
                let _ = write!(s, ",\"kind\":\"rejoin\",\"epoch\":{epoch}");
            }
        }
        s.push('}');
        s
    }

    /// Parse one JSON line produced by [`Event::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        let fields = parse_flat_object(line)?;
        let num = |key: &str| -> Result<f64, String> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, JsonVal::Num(v))) => Ok(*v),
                Some(_) => Err(format!("field `{key}` is not a number")),
                None => Err(format!("missing field `{key}`")),
            }
        };
        let string = |key: &str| -> Result<&str, String> {
            match fields.iter().find(|(k, _)| k == key) {
                Some((_, JsonVal::Str(v))) => Ok(v.as_str()),
                Some(_) => Err(format!("field `{key}` is not a string")),
                None => Err(format!("missing field `{key}`")),
            }
        };
        let rank = num("rank")? as u32;
        let worker = num("worker")? as u32;
        let t_mono_ns = num("t_mono_ns")? as u64;
        let t_virt = match fields.iter().find(|(k, _)| k == "t_virt") {
            Some((_, JsonVal::Num(v))) => Some(*v),
            Some((_, JsonVal::Null)) => None,
            Some(_) => return Err("field `t_virt` is not a number or null".into()),
            None => return Err("missing field `t_virt`".into()),
        };
        let kind = match string("kind")? {
            "span_begin" => EventKind::SpanBegin {
                phase: Cow::Owned(string("phase")?.to_string()),
            },
            "span_end" => EventKind::SpanEnd {
                phase: Cow::Owned(string("phase")?.to_string()),
            },
            "send" => EventKind::Send {
                peer: num("peer")? as u32,
                bytes: num("bytes")? as u64,
            },
            "recv" => EventKind::Recv {
                peer: num("peer")? as u32,
                bytes: num("bytes")? as u64,
            },
            "collective" => EventKind::Collective {
                op: CollectiveOp::from_name(string("op")?)
                    .ok_or_else(|| format!("unknown collective op `{}`", string("op").unwrap()))?,
                bytes: num("bytes")? as u64,
            },
            "task" => EventKind::Task {
                index: num("index")? as u32,
                dur_ns: num("dur_ns")? as u64,
            },
            "counter" => EventKind::Counter {
                name: Cow::Owned(string("name")?.to_string()),
                value: num("value")?,
            },
            "rejoin" => EventKind::Rejoin {
                epoch: num("epoch")? as u64,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(Event {
            rank,
            worker,
            t_mono_ns,
            t_virt,
            kind,
        })
    }
}

/// A value in the flat schema: only strings, numbers, and null appear.
enum JsonVal {
    Str(String),
    Num(f64),
    Null,
}

/// Minimal parser for one flat `{"key":value,...}` object — the entire
/// JSON surface the schema above uses (string values never contain
/// escapes other than `\"` and `\\`, which are handled anyway).
fn parse_flat_object(line: &str) -> Result<Vec<(String, JsonVal)>, String> {
    let b = line.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && (b[*i] as char).is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if *i >= b.len() || b[*i] != b'"' {
            return Err(format!("expected string at byte {i:?}"));
        }
        *i += 1;
        let mut out = String::new();
        while *i < b.len() {
            match b[*i] {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    if *i >= b.len() {
                        return Err("dangling escape".into());
                    }
                    out.push(b[*i] as char);
                    *i += 1;
                }
                c => {
                    out.push(c as char);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".into())
    };
    skip_ws(&mut i);
    if i >= b.len() || b[i] != b'{' {
        return Err("expected `{`".into());
    }
    i += 1;
    let mut fields = Vec::new();
    loop {
        skip_ws(&mut i);
        if i < b.len() && b[i] == b'}' {
            break;
        }
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if i >= b.len() || b[i] != b':' {
            return Err(format!("expected `:` after key `{key}`"));
        }
        i += 1;
        skip_ws(&mut i);
        let val = if i < b.len() && b[i] == b'"' {
            JsonVal::Str(parse_string(&mut i)?)
        } else if line[i..].starts_with("null") {
            i += 4;
            JsonVal::Null
        } else {
            let start = i;
            while i < b.len() && !matches!(b[i], b',' | b'}') {
                i += 1;
            }
            let tok = line[start..i].trim();
            JsonVal::Num(
                tok.parse::<f64>()
                    .map_err(|_| format!("bad number `{tok}` for key `{key}`"))?,
            )
        };
        fields.push((key, val));
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => break,
            _ => return Err("expected `,` or `}`".into()),
        }
    }
    Ok(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(e: Event) {
        let line = e.to_json_line();
        let back = Event::from_json_line(&line).expect(&line);
        assert_eq!(e, back, "line: {line}");
    }

    #[test]
    fn all_kinds_roundtrip() {
        roundtrip(Event {
            rank: 3,
            worker: 0,
            t_mono_ns: 123_456_789,
            t_virt: Some(0.001523),
            kind: EventKind::SpanBegin {
                phase: Cow::Borrowed("conv"),
            },
        });
        roundtrip(Event {
            rank: 0,
            worker: 0,
            t_mono_ns: 9,
            t_virt: None,
            kind: EventKind::SpanEnd {
                phase: Cow::Borrowed("fft_m"),
            },
        });
        roundtrip(Event {
            rank: 1,
            worker: 0,
            t_mono_ns: 44,
            t_virt: Some(2.5e-9),
            kind: EventKind::Send { peer: 7, bytes: 65536 },
        });
        roundtrip(Event {
            rank: 1,
            worker: 0,
            t_mono_ns: 45,
            t_virt: None,
            kind: EventKind::Recv { peer: 0, bytes: 1 },
        });
        roundtrip(Event {
            rank: 2,
            worker: 0,
            t_mono_ns: 46,
            t_virt: Some(1.0 / 3.0),
            kind: EventKind::Collective {
                op: CollectiveOp::AllToAll,
                bytes: u64::from(u32::MAX),
            },
        });
        roundtrip(Event {
            rank: 0,
            worker: 5,
            t_mono_ns: 47,
            t_virt: None,
            kind: EventKind::Task {
                index: 12,
                dur_ns: 88_000,
            },
        });
        roundtrip(Event {
            rank: 0,
            worker: 0,
            t_mono_ns: 48,
            t_virt: None,
            kind: EventKind::Counter {
                name: Cow::Borrowed("flops"),
                value: 1.5e9,
            },
        });
        roundtrip(Event {
            rank: 2,
            worker: 0,
            t_mono_ns: 49,
            t_virt: None,
            kind: EventKind::Rejoin { epoch: 1 },
        });
    }

    #[test]
    fn collective_names_invert() {
        for op in [
            CollectiveOp::Barrier,
            CollectiveOp::AllGather,
            CollectiveOp::AllToAll,
            CollectiveOp::SendRecv,
        ] {
            assert_eq!(CollectiveOp::from_name(op.name()), Some(op));
        }
        assert_eq!(CollectiveOp::from_name("bogus"), None);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Event::from_json_line("not json").is_err());
        assert!(Event::from_json_line("{}").is_err());
        assert!(Event::from_json_line(
            "{\"rank\":0,\"worker\":0,\"t_mono_ns\":1,\"t_virt\":null,\"kind\":\"wat\"}"
        )
        .is_err());
    }

    #[test]
    fn virtual_time_roundtrips_to_the_bit() {
        let v = 0.1 + 0.2; // not representable "nicely"
        let e = Event {
            rank: 0,
            worker: 0,
            t_mono_ns: 0,
            t_virt: Some(v),
            kind: EventKind::Collective {
                op: CollectiveOp::Barrier,
                bytes: 0,
            },
        };
        let back = Event::from_json_line(&e.to_json_line()).unwrap();
        assert_eq!(back.t_virt.unwrap().to_bits(), v.to_bits());
    }
}
