//! Open-loop HTTP load over one keep-alive connection.
//!
//! A writer thread sends requests on a fixed schedule whether or not
//! earlier replies have arrived (pipelining), so a stalled server builds a
//! queue instead of slowing the generator down; a reader thread blocks on
//! the socket and stamps each reply as it completes. Each request is timed
//! from when it was due, which charges a stall to every request that
//! waited behind it. The writer's lateness (send time minus due time) is
//! recorded so a run whose generator fell behind can be told apart from a
//! slow server.

use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Outcome of one scheduled request. Times are seconds since the run's
/// origin instant.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// When the request was due.
    pub due: f64,
    /// When the generator started writing it (None: never sent).
    pub sent: Option<f64>,
    /// When its complete reply had been read (None: no reply).
    pub done: Option<f64>,
    /// HTTP status of the reply (0 without one).
    pub status: u16,
    /// Reply body.
    pub body: Vec<u8>,
}

impl Record {
    /// Latency from due time to reply, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }

    /// How late the generator sent the request, in milliseconds.
    pub fn lag_ms(&self) -> Option<f64> {
        self.sent.map(|s| ((s - self.due) * 1e3).max(0.0))
    }
}

/// Split one complete HTTP/1.1 response off the front of `buf`: returns
/// (status, body, bytes consumed), or None if more bytes are needed.
pub fn parse_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let end = head_end + len;
    (buf.len() >= end).then(|| (status, buf[head_end..end].to_vec(), end))
}

/// Drive one connection through a schedule of `dues` (seconds after
/// `origin`): the writer thread calls `send(i, stream)` when request `i`
/// falls due, and the reader calls `on_reply(i, status, body)` as reply
/// `i` completes, so a later request can depend on an earlier reply.
/// Stops at `deadline` seconds after `origin`; requests still unanswered
/// then keep `done: None`. Returns one record per request, in order.
pub fn drive(
    stream: &mut TcpStream,
    dues: &[f64],
    origin: Instant,
    deadline: f64,
    mut send: impl FnMut(usize, &mut TcpStream) -> std::io::Result<()> + Send,
    mut on_reply: impl FnMut(usize, u16, &[u8]),
) -> std::io::Result<Vec<Record>> {
    let mut writer = stream.try_clone()?;
    // A server that stops reading fails the run instead of hanging it.
    writer.set_write_timeout(Some(Duration::from_secs(10)))?;
    // The reader wakes at least this often to notice the deadline.
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let now = || origin.elapsed().as_secs_f64();
    let (sent, replies) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut sent = Vec::with_capacity(dues.len());
            for (i, due) in dues.iter().enumerate() {
                let wait = due - now();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                if now() > deadline {
                    break;
                }
                sent.push(now());
                send(i, &mut writer)?;
            }
            Ok(sent)
        });
        let replies = read_replies(stream, dues.len(), deadline, now, &mut on_reply);
        let sent = sender
            .join()
            .map_err(|_| std::io::Error::other("writer thread panicked"));
        (sent, replies)
    });
    let (sent, replies) = (sent??, replies?);
    let mut records: Vec<Record> = dues
        .iter()
        .map(|&due| Record {
            due,
            ..Record::default()
        })
        .collect();
    for (r, t) in records.iter_mut().zip(sent) {
        r.sent = Some(t);
    }
    for (r, (done, status, body)) in records.iter_mut().zip(replies) {
        r.done = Some(done);
        r.status = status;
        r.body = body;
    }
    Ok(records)
}

/// Read up to `n` replies in order, stamping each with `now()` when it
/// completes; stops early at `deadline` or when the server closes.
fn read_replies(
    stream: &mut TcpStream,
    n: usize,
    deadline: f64,
    now: impl Fn() -> f64,
    on_reply: &mut impl FnMut(usize, u16, &[u8]),
) -> std::io::Result<Vec<(f64, u16, Vec<u8>)>> {
    let mut replies = Vec::with_capacity(n);
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    while replies.len() < n && now() <= deadline {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(k) => {
                buf.extend_from_slice(&chunk[..k]);
                let done = now();
                let mut used = 0;
                while let Some((status, body, len)) = parse_response(&buf[used..]) {
                    used += len;
                    on_reply(replies.len(), status, &body);
                    replies.push((done, status, body));
                }
                buf.drain(..used);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(replies)
}

/// Requests due but not yet answered, sampled at each due instant.
pub fn backlog_at_dues(records: &[Record]) -> Vec<usize> {
    let mut dues: Vec<f64> = records.iter().map(|r| r.due).collect();
    dues.sort_by(f64::total_cmp);
    let mut dones: Vec<f64> = records.iter().filter_map(|r| r.done).collect();
    dones.sort_by(f64::total_cmp);
    dues.iter()
        .enumerate()
        .map(|(k, &t)| {
            let answered = dones.partition_point(|&d| d <= t);
            // Requests due by t (k + 1 of them) minus those answered by t;
            // a reply can only follow its own due time.
            (k + 1).saturating_sub(answered)
        })
        .collect()
}

/// Whether the backlog grew over a phase: the mean backlog over its last
/// quarter exceeds twice that of its first quarter plus a slack of four
/// requests (pipelining keeps a few in flight even when keeping up).
pub fn backlog_grew(backlog: &[usize]) -> bool {
    let q = backlog.len() / 4;
    if q == 0 {
        return false;
    }
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    mean(&backlog[backlog.len() - q..]) > 2.0 * mean(&backlog[..q]) + 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: f64, sent: f64, done: Option<f64>) -> Record {
        Record {
            due,
            sent: Some(sent),
            done,
            status: 200,
            body: Vec::new(),
        }
    }

    #[test]
    fn latency_counts_from_due_time_and_lag_from_send() {
        let r = rec(1.0, 1.002, Some(1.010));
        assert!((r.latency_ms().unwrap() - 10.0).abs() < 1e-9);
        assert!((r.lag_ms().unwrap() - 2.0).abs() < 1e-9);
        let unanswered = rec(1.0, 1.0, None);
        assert_eq!(unanswered.latency_ms(), None);
    }

    #[test]
    fn backlog_counts_due_but_unanswered() {
        let records = vec![
            rec(0.0, 0.0, Some(0.5)),
            rec(1.0, 1.0, Some(1.5)),
            rec(2.0, 2.0, Some(4.5)),
            rec(3.0, 3.0, Some(4.6)),
            rec(4.0, 4.0, None),
        ];
        assert_eq!(backlog_at_dues(&records), vec![1, 1, 1, 2, 3]);
    }

    #[test]
    fn steady_backlog_is_not_growth_but_a_rising_one_is() {
        let steady = vec![3usize; 40];
        assert!(!backlog_grew(&steady));
        let rising: Vec<usize> = (0..40).collect();
        assert!(backlog_grew(&rising));
        assert!(!backlog_grew(&[1, 2, 3]));
    }

    #[test]
    fn responses_split_on_content_length() {
        let mut wire = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcHTTP/1.1 400 Bad".to_vec();
        let (status, body, used) = parse_response(&wire).unwrap();
        assert_eq!((status, body.as_slice(), used), (200, &b"abc"[..], 41));
        wire.drain(..used);
        assert!(parse_response(&wire).is_none());
    }
}
