use super::conn::send;
use super::lock;
use crate::protocol::{codes, parse_line, Frame};
use std::io::Write;
use std::sync::Mutex;

/// Records every `write` call it receives.
#[derive(Default)]
struct CountingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn send_issues_one_write_per_frame() {
    let out = Mutex::new(CountingWriter::default());
    let frames = [
        Frame::error(Some(3), codes::BAD_SPEC, "no such instance"),
        Frame {
            kind: "pong".to_string(),
            ..Frame::default()
        },
    ];
    for frame in &frames {
        send(&out, frame);
    }
    let writes = &lock(&out).writes;
    assert_eq!(writes.len(), frames.len(), "one write per frame");
    for (bytes, frame) in writes.iter().zip(&frames) {
        let (newline, line) = bytes.split_last().expect("non-empty write");
        assert_eq!(*newline, b'\n');
        assert!(!line.contains(&b'\n'));
        let back: Frame = parse_line(std::str::from_utf8(line).unwrap()).unwrap();
        assert_eq!(&back, frame);
    }
}
