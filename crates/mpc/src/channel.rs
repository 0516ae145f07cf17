//! The party-to-party link: one server's half of the three joint operations.
//!
//! In the actor modes each of the two servers runs on its own thread (see
//! [`crate::exec`]) and owns one [`PartyEndpoint`]: its [`Server`] state plus a
//! [`PartyTransport`] to the peer — `std::sync::mpsc` channels
//! ([`endpoint_pair`]) or a real loopback TCP socket ([`endpoint_pair_tcp`]).
//! Every joint operation is an actual [`PartyMessage`] exchange: each side
//! sends before it receives, so the two threads never deadlock. The module is
//! crate-private; the only way in is [`PartyContext`](crate::PartyContext).
//!
//! # Wire format (TCP transport)
//!
//! Each message is framed as a 4-byte little-endian payload length followed by
//! the payload: one tag byte plus the message body in little-endian words — a
//! [`PartyMessage::RandContribution`] body is 12 bytes, a
//! [`PartyMessage::ReshareMask`] body is 4, a [`PartyMessage::ShareBatch`] body
//! is `4·len` (the word count derives from the frame length; an empty batch —
//! "value absent" — is a legal 1-byte payload). The body is exactly this
//! party's half of what the driver's meter prices for the operation, so
//! per endpoint `wire_bytes_sent == 5·messages_sent + metered channel bytes / 2`
//! (5 = frame header + tag) — the identity the driver asserts at every charge
//! of a tcp-mode run.
//!
//! # What the endpoint does not do
//!
//! Endpoints meter nothing: a joint operation's bytes, and its circuit's round,
//! are charged once, on the driver's meter, in every mode. An endpoint only counts
//! what it really wrote to the link ([`WireCounters`]). Each party derives its
//! contribution to a named draw from its own [`Server`] key, as the in-process
//! context does, so the XOR-combined outputs are bit-identical to it.
//!
//! # Failure semantics
//!
//! Every operation returns `Result<_, ChannelError>`, never panics on what the
//! peer sent and never hangs on a dead peer: a dropped peer endpoint (its thread
//! exited or panicked) is [`ChannelError::Disconnected`], bytes that do not
//! decode to the expected message are [`ChannelError::Malformed`], any other
//! socket failure is [`ChannelError::Io`]. The party thread exits on any of
//! them and the driver surfaces that as
//! [`PARTY_CRASH_MESSAGE`](crate::PARTY_CRASH_MESSAGE).

use crate::party::{Server, ServerPair};
use crate::runtime::JointRandomness;
use crate::stream::Draw;
use incshrink_secretshare::{PartyId, SharePair};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{channel, Receiver, Sender};

/// One protocol message between the two party actors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PartyMessage {
    /// Joint-randomness contribution: the sender's words for the named draw.
    RandContribution(JointRandomness),
    /// A reshare round: the sender's fresh mask word `z_i`.
    ReshareMask { mask: u32 },
    /// The sender's share words for a named-value recovery; an empty batch
    /// signals "value not present".
    ShareBatch { words: Vec<u32> },
}

/// Party-link failure. Any of these ends the party thread that hit it, which
/// the protocol driver reports as [`PARTY_CRASH_MESSAGE`](crate::PARTY_CRASH_MESSAGE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The peer endpoint was dropped (its thread exited or panicked); the
    /// protocol cannot make progress.
    Disconnected,
    /// The peer sent bytes that do not decode to the message the protocol
    /// expects at this point (bad frame length, unknown tag, wrong body size,
    /// wrong message kind).
    Malformed,
    /// The socket failed in a way other than a closed connection.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected => write!(f, "peer party endpoint disconnected"),
            Self::Malformed => write!(f, "peer party endpoint sent a malformed message"),
            Self::Io(kind) => write!(f, "party socket I/O failed: {kind:?}"),
        }
    }
}

impl std::error::Error for ChannelError {}

/// Result alias for party-link operations.
pub(crate) type ChannelResult<T> = Result<T, ChannelError>;

/// Message tags of the length-prefixed TCP codec (one byte after the frame
/// header). Kept in a tiny private namespace so encode/decode can't drift.
mod tag {
    pub(crate) const RAND: u8 = 0;
    pub(crate) const RESHARE: u8 = 1;
    pub(crate) const SHARE_BATCH: u8 = 2;
}

/// Bytes of the TCP frame header plus tag byte — the per-message wire overhead
/// on top of the message body.
pub(crate) const WIRE_FRAME_OVERHEAD: u64 = 5;

/// Largest payload (tag + body) a frame header may announce.
const MAX_FRAME_PAYLOAD: usize = 1 << 24;

fn encode_frame(msg: &PartyMessage) -> Vec<u8> {
    let mut frame = vec![0u8; 4];
    match msg {
        PartyMessage::RandContribution(JointRandomness { word, word64 }) => {
            frame.push(tag::RAND);
            frame.extend_from_slice(&word.to_le_bytes());
            frame.extend_from_slice(&word64.to_le_bytes());
        }
        PartyMessage::ReshareMask { mask } => {
            frame.push(tag::RESHARE);
            frame.extend_from_slice(&mask.to_le_bytes());
        }
        PartyMessage::ShareBatch { words } => {
            frame.push(tag::SHARE_BATCH);
            for w in words {
                frame.extend_from_slice(&w.to_le_bytes());
            }
        }
    }
    let payload_len = (frame.len() - 4) as u32;
    frame[..4].copy_from_slice(&payload_len.to_le_bytes());
    frame
}

/// Decode one frame payload (tag byte + body). Everything here is
/// peer-supplied, so every mismatch is an error value, never a panic.
fn decode_frame(payload: &[u8]) -> ChannelResult<PartyMessage> {
    let (&tag, body) = payload.split_first().ok_or(ChannelError::Malformed)?;
    let word = |chunk: &[u8]| u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    match (tag, body.len()) {
        (tag::RAND, 12) => Ok(PartyMessage::RandContribution(JointRandomness {
            word: word(&body[..4]),
            word64: u64::from_le_bytes(body[4..].try_into().expect("8-byte tail")),
        })),
        (tag::RESHARE, 4) => Ok(PartyMessage::ReshareMask { mask: word(body) }),
        (tag::SHARE_BATCH, len) if len % 4 == 0 => Ok(PartyMessage::ShareBatch {
            words: body.chunks_exact(4).map(word).collect(),
        }),
        _ => Err(ChannelError::Malformed),
    }
}

/// Map a socket error to the link's failure semantics: a peer that closed the
/// connection (its thread exited or panicked) is [`ChannelError::Disconnected`],
/// exactly like a dropped mpsc endpoint; anything else is [`ChannelError::Io`].
fn io_to_channel(err: std::io::Error) -> ChannelError {
    match err.kind() {
        std::io::ErrorKind::UnexpectedEof
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted => ChannelError::Disconnected,
        other => ChannelError::Io(other),
    }
}

/// The physical link between two [`PartyEndpoint`]s.
#[derive(Debug)]
enum PartyTransport {
    /// `std::sync::mpsc` pair — messages move as Rust values, no serialization.
    Mpsc {
        peer: Sender<PartyMessage>,
        inbox: Receiver<PartyMessage>,
    },
    /// A connected TCP stream (Nagle disabled — every round is latency-bound):
    /// every message is serialized, framed and actually written to the socket.
    Tcp { stream: TcpStream },
}

impl PartyTransport {
    /// Send one message; returns the bytes actually written to the link.
    fn send(&mut self, msg: PartyMessage) -> ChannelResult<u64> {
        match self {
            PartyTransport::Mpsc { peer, .. } => peer
                .send(msg)
                .map(|()| 0)
                .map_err(|_| ChannelError::Disconnected),
            PartyTransport::Tcp { stream } => {
                let frame = encode_frame(&msg);
                stream.write_all(&frame).map_err(io_to_channel)?;
                Ok(frame.len() as u64)
            }
        }
    }

    fn recv(&mut self) -> ChannelResult<PartyMessage> {
        match self {
            PartyTransport::Mpsc { inbox, .. } => {
                inbox.recv().map_err(|_| ChannelError::Disconnected)
            }
            PartyTransport::Tcp { stream } => {
                let mut header = [0u8; 4];
                stream.read_exact(&mut header).map_err(io_to_channel)?;
                let payload_len = u32::from_le_bytes(header) as usize;
                if !(1..=MAX_FRAME_PAYLOAD).contains(&payload_len) {
                    return Err(ChannelError::Malformed);
                }
                let mut payload = vec![0u8; payload_len];
                stream.read_exact(&mut payload).map_err(io_to_channel)?;
                decode_frame(&payload)
            }
        }
    }
}

/// What one endpoint really put on the link — the measured side of the tcp
/// reconciliation. Bytes are 0 over mpsc (messages move as values) and full
/// frame bytes over TCP; the message count is transport-independent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct WireCounters {
    pub bytes_sent: u64,
    pub messages_sent: u64,
}

/// One of the two servers, running its half of each joint operation over a
/// link to the other. The two endpoints of a pair are symmetric and every
/// operation must be called on *both*, from two threads of control.
#[derive(Debug)]
pub(crate) struct PartyEndpoint {
    server: Server,
    transport: PartyTransport,
    wire: WireCounters,
}

/// Keys follow [`ServerPair::new`], so a pair of endpoints replays the
/// contributions of the in-process context bit for bit.
fn endpoints(seed: u64, link0: PartyTransport, link1: PartyTransport) -> [PartyEndpoint; 2] {
    let ServerPair { s0, s1 } = ServerPair::new(seed);
    [(s0, link0), (s1, link1)].map(|(server, transport)| PartyEndpoint {
        server,
        transport,
        wire: WireCounters::default(),
    })
}

/// A connected pair of party endpoints (`S0`, `S1`) linked by in-memory
/// `std::sync::mpsc` channels.
pub(crate) fn endpoint_pair(seed: u64) -> [PartyEndpoint; 2] {
    let (to_s1, from_s0) = channel();
    let (to_s0, from_s1) = channel();
    endpoints(
        seed,
        PartyTransport::Mpsc {
            peer: to_s1,
            inbox: from_s1,
        },
        PartyTransport::Mpsc {
            peer: to_s0,
            inbox: from_s0,
        },
    )
}

/// A connected loopback socket pair with Nagle's algorithm disabled: every
/// protocol round is latency-bound and must flush immediately.
fn loopback_streams() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    // Single-threaded connect-then-accept is safe: the kernel's SYN queue holds
    // the pending connection until `accept` picks it up.
    let near = TcpStream::connect(listener.local_addr()?)?;
    let (far, _) = listener.accept()?;
    near.set_nodelay(true)?;
    far.set_nodelay(true)?;
    Ok((near, far))
}

/// A connected pair of party endpoints linked by a real loopback TCP socket
/// speaking the length-prefixed [`PartyMessage`] codec. Same seeding as
/// [`endpoint_pair`]; the only difference is that every message is serialized
/// and actually written to a socket.
///
/// # Errors
/// Propagates socket setup failures (bind / connect / accept on `127.0.0.1:0`).
pub(crate) fn endpoint_pair_tcp(seed: u64) -> std::io::Result<[PartyEndpoint; 2]> {
    let (s0_stream, s1_stream) = loopback_streams()?;
    Ok(endpoints(
        seed,
        PartyTransport::Tcp { stream: s0_stream },
        PartyTransport::Tcp { stream: s1_stream },
    ))
}

impl PartyEndpoint {
    /// Which party this endpoint plays.
    pub(crate) fn id(&self) -> PartyId {
        self.server.id
    }

    /// What this endpoint has written to the link so far.
    pub(crate) fn wire(&self) -> WireCounters {
        self.wire
    }

    fn send(&mut self, msg: PartyMessage) -> ChannelResult<()> {
        self.wire.bytes_sent += self.transport.send(msg)?;
        self.wire.messages_sent += 1;
        Ok(())
    }

    /// Jointly sample the named draw: send this server's words for it, receive
    /// the peer's, XOR-combine.
    pub(crate) fn joint_randomness(&mut self, draw: Draw) -> ChannelResult<JointRandomness> {
        let own = self.server.contribution(draw);
        self.send(PartyMessage::RandContribution(own))?;
        let PartyMessage::RandContribution(peer) = self.transport.recv()? else {
            return Err(ChannelError::Malformed);
        };
        Ok(own.xor(peer))
    }

    /// Re-share `value` inside the protocol with the peer-exchanged masks of
    /// the named draw and store this party's resulting share under `name`.
    pub(crate) fn reshare_and_store(
        &mut self,
        name: &str,
        value: u32,
        draw: Draw,
    ) -> ChannelResult<()> {
        let own_mask = self.server.contribution(draw).word;
        self.send(PartyMessage::ReshareMask { mask: own_mask })?;
        let PartyMessage::ReshareMask { mask: peer_mask } = self.transport.recv()? else {
            return Err(ChannelError::Malformed);
        };
        // `reshare_joint(value, z0, z1)` must see the masks in party order.
        let (z0, z1) = match self.id() {
            PartyId::S0 => (own_mask, peer_mask),
            PartyId::S1 => (peer_mask, own_mask),
        };
        let pair = SharePair::reshare_joint(value, z0, z1);
        self.server.store_share(name, pair.for_party(self.id()));
        Ok(())
    }

    /// Recover a named shared value by exchanging the stored shares; `None`
    /// when neither party holds it. The stores are updated in protocol
    /// lockstep, so a value present on exactly one side can only mean the peer
    /// answered something else: [`ChannelError::Malformed`].
    pub(crate) fn recover_named(&mut self, name: &str) -> ChannelResult<Option<u32>> {
        let own = self.server.load_share(name);
        self.send(PartyMessage::ShareBatch {
            words: own.iter().map(|s| s.word).collect(),
        })?;
        let PartyMessage::ShareBatch { words: peer_words } = self.transport.recv()? else {
            return Err(ChannelError::Malformed);
        };
        match (own, peer_words.first()) {
            (Some(own), Some(&peer_word)) => Ok(Some(own.word ^ peer_word)),
            (None, None) => Ok(None),
            _ => Err(ChannelError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Domain;
    use crate::{CostModel, PartyContext, PartyExec, PartyMode};

    /// The first joint draw and the first re-share of a context's step 0.
    const JOINT: Draw = Domain::JointRandomness.draw(0, 0, 0);
    const RESHARE: Draw = Domain::Reshare.draw(0, 0, 0);

    /// Run `f` on both endpoints of a pair, `S1` on its own thread.
    fn on_both<R: Send>(
        pair: &mut [PartyEndpoint; 2],
        f: impl Fn(&mut PartyEndpoint) -> R + Sync,
    ) -> [R; 2] {
        let [e0, e1] = pair;
        std::thread::scope(|scope| {
            let peer = scope.spawn(|| f(e1));
            [f(e0), peer.join().expect("party-1 thread panicked")]
        })
    }

    fn in_process(seed: u64) -> PartyContext {
        PartyContext::new(PartyMode::InProcess, seed, CostModel::default())
    }

    #[test]
    fn joint_randomness_matches_shared_context() {
        let expected = in_process(1234).joint_randomness();
        let got = on_both(&mut endpoint_pair(1234), |e| {
            e.joint_randomness(JOINT).unwrap()
        });
        assert_eq!(got, [expected, expected]);
    }

    #[test]
    fn reshare_then_recover_round_trips() {
        let got = on_both(&mut endpoint_pair(7), |e| {
            e.reshare_and_store("c", 99, RESHARE).unwrap();
            (
                e.recover_named("c").unwrap(),
                e.recover_named("absent").unwrap(),
            )
        });
        assert_eq!(got, [(Some(99), None), (Some(99), None)]);
    }

    /// A dead peer must surface as `Disconnected` on *every* operation — the
    /// regression contract for the teardown path (no operation may block on a
    /// link whose other end is gone).
    fn assert_dropped_peer_fails_every_operation([mut e0, e1]: [PartyEndpoint; 2]) {
        drop(e1);
        assert_eq!(e0.joint_randomness(JOINT), Err(ChannelError::Disconnected));
        assert_eq!(
            e0.reshare_and_store("x", 1, RESHARE),
            Err(ChannelError::Disconnected)
        );
        assert_eq!(e0.recover_named("x"), Err(ChannelError::Disconnected));
    }

    #[test]
    fn disconnect_is_an_error_not_a_hang() {
        assert_dropped_peer_fails_every_operation(endpoint_pair(3));
        // The error is well-formed for callers that surface it.
        assert_eq!(
            ChannelError::Disconnected.to_string(),
            "peer party endpoint disconnected"
        );
    }

    #[test]
    fn tcp_disconnect_is_an_error_not_a_hang() {
        assert_dropped_peer_fails_every_operation(endpoint_pair_tcp(3).unwrap());
    }

    /// The mid-protocol variant: the peer dies *between* operations it already
    /// participated in. Completed results stay valid; the next operation fails.
    #[test]
    fn peer_death_mid_protocol_fails_the_next_operation() {
        for mut pair in [endpoint_pair(44), endpoint_pair_tcp(44).unwrap()] {
            let [first, peer_first] = on_both(&mut pair, |e| e.joint_randomness(JOINT).unwrap());
            assert_eq!(first, peer_first, "joint randomness must agree");
            let [mut e0, e1] = pair;
            drop(e1);
            assert_eq!(e0.joint_randomness(JOINT), Err(ChannelError::Disconnected));
        }
    }

    #[test]
    fn codec_round_trips_every_message_kind() {
        let messages = [
            PartyMessage::RandContribution(JointRandomness {
                word: 0xDEAD_BEEF,
                word64: 0x0123_4567_89AB_CDEF,
            }),
            PartyMessage::ReshareMask { mask: 42 },
            PartyMessage::ShareBatch { words: vec![] },
            PartyMessage::ShareBatch {
                words: vec![1, u32::MAX, 7],
            },
        ];
        for msg in messages {
            let frame = encode_frame(&msg);
            let payload_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
            assert_eq!(payload_len, frame.len() - 4, "header matches payload");
            assert_eq!(decode_frame(&frame[4..]), Ok(msg), "round trip");
        }
    }

    /// Whatever the peer writes to the socket, the receiving party gets an
    /// error value: no panic, and (the writer closes after its bytes) no hang.
    #[test]
    fn malformed_frames_are_errors_not_panics() {
        let oversized = (MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes();
        let cases: [(&str, &[u8], ChannelError); 5] = [
            ("zero-length frame", &[0, 0, 0, 0], ChannelError::Malformed),
            ("length > 2^24", &oversized, ChannelError::Malformed),
            ("unknown tag", &[1, 0, 0, 0, 9], ChannelError::Malformed),
            (
                "11-byte RandContribution body",
                &[12, 0, 0, 0, tag::RAND, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
                ChannelError::Malformed,
            ),
            (
                "EOF mid-payload",
                &[13, 0, 0, 0, tag::RAND, 1, 2, 3],
                ChannelError::Disconnected,
            ),
        ];
        for (label, bytes, expected) in cases {
            let (mut peer, stream) = loopback_streams().unwrap();
            peer.write_all(bytes).unwrap();
            drop(peer);
            let mut transport = PartyTransport::Tcp { stream };
            assert_eq!(transport.recv(), Err(expected), "{label}");
        }
        // A well-formed message of the wrong kind is malformed *for the
        // operation* that receives it.
        let [mut e0, mut e1] = endpoint_pair_tcp(5).unwrap();
        e1.send(PartyMessage::ReshareMask { mask: 1 }).unwrap();
        assert_eq!(e0.joint_randomness(JOINT), Err(ChannelError::Malformed));
    }

    /// Drive the same operation sequence over mpsc and TCP endpoints and the
    /// in-process context: outputs agree bit for bit, and each TCP endpoint's
    /// socket bytes are frame overhead plus its half of the metered bytes.
    #[test]
    fn tcp_pair_replays_mpsc_pair_and_shared_context() {
        let mut ctx = in_process(0xC0DE);
        let expected = (
            ctx.joint_randomness(),
            {
                ctx.reshare_and_store("c", 1234);
                ctx.recover_named("c")
            },
            ctx.recover_named("absent"),
        );
        let (report, _) = ctx.charge();
        assert_eq!(report.rounds, 1, "the joint operations share one circuit");

        for (tcp, mut pair) in [
            (false, endpoint_pair(0xC0DE)),
            (true, endpoint_pair_tcp(0xC0DE).unwrap()),
        ] {
            let got = on_both(&mut pair, |e| {
                let joint = e.joint_randomness(JOINT).unwrap();
                e.reshare_and_store("c", 1234, RESHARE).unwrap();
                let present = e.recover_named("c").unwrap();
                (
                    (joint, present, e.recover_named("absent").unwrap()),
                    e.wire(),
                )
            });
            for (values, wire) in got {
                assert_eq!(values, expected, "tcp = {tcp}");
                assert_eq!(wire.messages_sent, 4, "one message per op per side");
                let priced = WIRE_FRAME_OVERHEAD * 4 + report.bytes_communicated / 2;
                assert_eq!(wire.bytes_sent, if tcp { priced } else { 0 }, "tcp = {tcp}");
            }
        }
    }
}
