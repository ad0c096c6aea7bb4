"""Serial-side simulation: the firmware's receive ring buffer and the
injected interceptor that edits g-code in flight.

The receive ISR stores one character and advances head; the interceptor
epilogue then runs atomically with it (the real injection disables
interrupts across the pair, so the simulation exposes them as one
producer step).  The consumer drains whole lines from tail.

Hiding works by rewinding head: a character the interceptor wants to
swallow is un-published immediately after the ISR stored it, so the next
arrival overwrites the same cell.  Digits of a targeted value are never
buffered anywhere - they are folded into the 4-byte fixed-point
accumulator on arrival and the edited text is written back through the
normal path once the value's delimiter shows up.  Because the consumer
only ever dequeues complete lines, rewriting earlier cells of the
line-in-progress (the move-command digit, for travel conversion) is safe.

A line completes only on the step that stores its newline, so the
producer loop dequeues one line after that step and none after any
other.  The epilogue takes back only the byte the ISR just stored (a
hidden digit or point, or the delimiter of a targeted value, which
_finish_target writes again after the edited text in the same step), and
the rewinds in _decide_on_first_digit cover a value's sign, point, letter
and space; so no step publishes a newline it did not store, and none
takes one back.

The wire carries bytes: UartSimulation sends the UTF-8 encoding of its
text, as a host writing to the port does, and the consumer decodes each
line as UTF-8.  Only a full ring can cut a multibyte character (the ISR
drops bytes, and SimStats.dropped counts them); the consumer then shows
U+FFFD in its place.  The interceptor's grammar is ASCII, so bytes past
0x7F only ever end a token or sit in a comment.

marlin_rx_isr, trojan_epilogue and consumer_readline are the
single-character model, kept public so tests can replay any schedule
through them.  The line walk is written once, as the step table _STEP:
by parser state and byte, the next parser state wherever that is all
that changes.  At line start LF and space stay there, and any byte but
'G' or 'M' skips the line: a CR too, since the transform sees no command
in a line that starts with one.  In a skipped line or comment a newline
returns to line start and any other byte stays; in a G1 or M73 line a
newline ends the line, ';' starts its comment, a space ends a token and
any other byte stays in the token.  'G' or 'M' at line start, the 'E'
(in M73 the 'P') right after a space, and every byte that arrives while
a command number or value is captured (its delimiter included) are
marked _CALL: the epilogue steps the table and hands only those pairs
to _act.  UartSimulation's producer loop does the same over the wire
bytes, calling _act directly.  E values and P percentages share one
capture, the states ST_V_INT and ST_V_FRAC; F_PROGRESS marks a
percentage, which is read and never hidden.

All interceptor persistence lives in TrojanState, which serializes to 15
bytes: the memory the stack-steal patch carved out.  There is no room for
anything else, which is why the payload mode itself is not state (the two
payloads are separate builds) and why the eligible-move counter is one
byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .avr import RingBufferInfo
from .errors import FlawsimError
from .fixedpoint import MAX_RAW, SCALE, div_round_half_away, format_raw
from .policy import Mode, TamperPolicy


class BufferFull(FlawsimError):
    pass


# parser states (low nibble of parser_state; the high nibble counts the
# decimals captured so far in ST_V_FRAC)
ST_LINE_START = 0
ST_G_NUM = 1
ST_M_NUM = 2
ST_G1_MID = 3  # inside a G1 line, mid-token
ST_G1_TOK = 4  # inside a G1 line, previous char was a space
ST_V_INT = 6  # a captured value (G1 E or M73 P), before its point
ST_V_FRAC = 7  # a captured value, after its point
ST_M73_MID = 8
ST_M73_TOK = 9
ST_SKIP = 13

# flag bits (flags_window)
F_WINDOW_ACTIVE = 0x01
F_WINDOW_DONE = 0x02
F_DORMANT = 0x04
F_PROGRESS = 0x08  # the value is an M73 P percentage: read, never hidden
F_NEG = 0x10
F_CONVERT = 0x20
F_PENDING = 0x40  # saw the target letter; no digit yet, nothing committed
F_SIGN_SEEN = 0x80

EV_EDIT = "edit"
EV_CONVERT = "convert"
EV_EDIT_SKIPPED = "edit_skipped"
EV_OVERFLOW = "accumulator_overflow"
EV_DORMANT_M83 = "dormant_relative_extrusion"


_CALL = 0xFF  # in _STEP: _act must run for this pair


def _step_rows() -> tuple[bytes, ...]:
    """By parser state and byte, the next parser state where that is all
    that changes, or _CALL where _act must run; the module docstring lists
    the pairs."""
    rows = [bytes([_CALL]) * 256] * 256
    rows[ST_LINE_START] = bytes(
        _CALL if byte in b"GM" else ST_LINE_START if byte in b"\n " else ST_SKIP
        for byte in range(256)
    )
    rows[ST_SKIP] = bytes(ST_LINE_START if byte == 0x0A else ST_SKIP for byte in range(256))
    for mid, tok, target in ((ST_G1_MID, ST_G1_TOK, 0x45), (ST_M73_MID, ST_M73_TOK, 0x50)):
        walk = bytearray([mid]) * 256
        walk[0x0A] = ST_LINE_START
        walk[0x3B] = ST_SKIP  # ';'
        walk[0x20] = tok
        rows[mid] = bytes(walk)
        # after a space the target letter ('E', in M73 'P') may start a
        # value: the epilogue runs
        walk[target] = _CALL
        rows[tok] = bytes(walk)
    return tuple(rows)


_STEP = _step_rows()

# ASCII 0-9 only, as in the firmware's NUMERIC() and the g-code parser
# (chr(byte).isdigit() would also take latin-1's superscripts 2, 3 and 1)
_IS_DIGIT = bytes(48 <= b <= 57 for b in range(256))


@dataclass(slots=True)
class RingBufferState:
    """Power-of-two circular buffer; empty iff head == tail (capacity size-1)."""

    size: int
    head: int = 0
    tail: int = 0
    root_addr: int = 0
    storage: bytearray = field(default=None)  # type: ignore[assignment]
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.size < 2 or self.size & (self.size - 1):
            raise ValueError("ring size must be a power of two")
        if self.storage is None:
            self.storage = bytearray(self.size)
        self.mask = self.size - 1

    def free_space(self) -> int:
        return (self.tail - self.head - 1) & self.mask

    def visible(self) -> bytes:
        """The published bytes, tail to head."""
        if self.tail <= self.head:
            return bytes(self.storage[self.tail : self.head])
        return bytes(self.storage[self.tail :] + self.storage[: self.head])


def marlin_rx_isr(ring: RingBufferState, char: int | str) -> None:
    """Store one received character at head.  Raises BufferFull when the
    buffer cannot take another character (that character is dropped)."""
    byte = ord(char) if isinstance(char, str) else char
    head = ring.head
    after = (head + 1) & ring.mask
    if after == ring.tail:
        raise BufferFull(f"dropped {byte:#04x}")
    ring.storage[head] = byte
    ring.head = after


def consumer_readline(ring: RingBufferState) -> str:
    """Dequeue one complete newline-terminated line, or '' if none is
    fully visible between tail and head.

    The first newline after tail ends the line, found with one slice or,
    when the published span wraps past index 0, two.
    """
    storage, tail, head = ring.storage, ring.tail, ring.head
    if tail == head:
        return ""
    end = storage.find(0x0A, tail, head if tail < head else ring.size)
    if end >= 0:
        line = storage[tail : end + 1]
    elif tail > head and (end := storage.find(0x0A, 0, head)) >= 0:
        line = storage[tail:] + storage[: end + 1]
    else:
        return ""
    ring.tail = (end + 1) & ring.mask
    return line.decode("utf-8", errors="replace")


@dataclass
class TrojanState:
    """Interceptor persistence; serializes to exactly 15 bytes.

    head_copy/tail_copy/root_addr hold the discovered addresses of the
    firmware's ring-buffer bookkeeping.  cmd_slot is the ring index of the
    current line's command-number digit, kept so a selected move can be
    rewritten to a travel in place.
    """

    head_copy: int = 0
    tail_copy: int = 0
    root_addr: int = 0
    parser_state: int = ST_LINE_START
    accumulator: int = 0
    flags_window: int = 0
    gcode_counter: int = 0
    policy_param: int = 0
    cmd_slot: int = 0

    @classmethod
    def for_policy(cls, policy: TamperPolicy, ring_info: RingBufferInfo | None = None) -> "TrojanState":
        state = cls(policy_param=policy.param_byte())
        if ring_info is not None:
            state.head_copy = ring_info.head_addr
            state.tail_copy = ring_info.tail_addr
            state.root_addr = ring_info.root_addr
        return state

    def to_bytes(self) -> bytes:
        return struct.pack(
            "<HHHBiBBBB",
            self.head_copy,
            self.tail_copy,
            self.root_addr,
            self.parser_state,
            self.accumulator,
            self.flags_window,
            self.gcode_counter,
            self.policy_param,
            self.cmd_slot,
        )


def _hide(ring: RingBufferState):
    ring.head = (ring.head - 1) & ring.mask


def _emit(ring: RingBufferState, byte: int):
    ring.storage[ring.head] = byte
    ring.head = (ring.head + 1) & ring.mask


def _go_dormant(trojan: TrojanState):
    trojan.flags_window = (trojan.flags_window | F_DORMANT) & ~F_CONVERT


def _fold_digit(trojan: TrojanState, digit: int, in_frac: bool) -> str | None:
    """Fold one digit of a captured number (command number, E or P value)
    into the accumulator.

    Integer digits always fold.  Decimals fold up to the fourth (their
    count is the high nibble of parser_state), the fifth only rounds half
    up and later ones are dropped, so values are captured at 1e-4.  A
    digit or a rounding that takes the number past 32 bits sends the
    interceptor dormant for the session.
    """
    acc = trojan.accumulator
    if in_frac:
        frac = trojan.parser_state >> 4
        if frac > 4:
            return None
        acc = acc + (digit >= 5) if frac == 4 else acc * 10 + digit
    else:
        acc = acc * 10 + digit
    if acc > MAX_RAW:
        _go_dormant(trojan)
        return EV_OVERFLOW
    trojan.accumulator = acc
    if in_frac:
        trojan.parser_state += 0x10
    return None


def _scaled_value(trojan: TrojanState) -> int | None:
    """Close out value capture: accumulator scaled to 10^4, signed; None
    when it no longer fits 32 bits."""
    frac = trojan.parser_state >> 4
    raw = trojan.accumulator
    if frac < 4:
        raw *= 10 ** (4 - frac)
    if raw > MAX_RAW:
        return None
    return -raw if trojan.flags_window & F_NEG else raw


def _pass_finish(trojan: TrojanState, delim: int):
    """A value token ended before any digit arrived: it was never hidden,
    so it stays as received.  The token makes its line malformed, which
    the transform leaves alone, so the rest of the line is skipped: no
    later E is edited and a progress token leaves the window as it was."""
    trojan.flags_window &= ~(F_PENDING | F_NEG | F_SIGN_SEEN | F_PROGRESS)
    trojan.accumulator = 0
    trojan.parser_state = _STEP[ST_SKIP][delim]


def _decide_on_first_digit(
    trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy, digit: int, in_frac: bool
):
    """The first digit makes the token a well-formed value: commit to an
    edit (reduction), a conversion or a verbatim pass (relocation), or
    read on (a progress percentage).

    Any sign or decimal point that already passed through is taken back
    here; until this moment nothing was hidden, so a token that never
    produces a digit leaves no trace.  The rewinds stay inside the current
    line (digit, sign, point, letter and its space), so they never take
    back a newline.
    """
    flags = trojan.flags_window & ~F_PENDING
    visible_prefix = 1 + (1 if flags & F_SIGN_SEEN else 0) + (1 if in_frac else 0)
    if flags & F_PROGRESS or policy.mode is Mode.REDUCTION:
        if not flags & F_PROGRESS:
            ring.head = (ring.head - visible_prefix) & ring.mask
        trojan.flags_window = flags
        trojan.accumulator = digit
        trojan.parser_state = (0x10 | ST_V_FRAC) if in_frac else ST_V_INT
        return
    if flags & F_WINDOW_ACTIVE:
        trojan.gcode_counter += 1
        if trojan.gcode_counter >= trojan.policy_param:
            trojan.gcode_counter = 0
            # unpublish the whole token so far plus the letter and its space
            ring.head = (ring.head - visible_prefix - 2) & ring.mask
            ring.storage[trojan.cmd_slot] = 0x30  # '0'
            trojan.flags_window = flags | F_CONVERT
            trojan.parser_state = ST_V_FRAC if in_frac else ST_V_INT
            return
    # kept: the value stays exactly as received, later chars are ordinary
    trojan.flags_window = flags & ~(F_NEG | F_SIGN_SEEN)
    trojan.parser_state = ST_G1_MID


def _finish_target(trojan: TrojanState, ring: RingBufferState, delim: int) -> str | None:
    """The delimiter of a targeted extrusion value just arrived."""
    if trojan.flags_window & F_CONVERT:
        # Value discarded; the delimiter the ISR just stored already sits
        # exactly where the removed token began.  Nothing to write back.
        event = EV_CONVERT
    else:
        _hide(ring)  # take back the delimiter; re-emitted after the value
        value = _scaled_value(trojan)
        if value is None:
            _go_dormant(trojan)
            _emit(ring, delim)
            trojan.flags_window &= ~F_NEG
            trojan.parser_state = _STEP[ST_G1_MID][delim]
            return EV_OVERFLOW
        edited = div_round_half_away(value * (100 - trojan.policy_param), 100)
        text = format_raw(edited)
        if ring.free_space() >= len(text) + 1:
            for ch in text:
                _emit(ring, ord(ch))
            event = EV_EDIT
        else:
            event = EV_EDIT_SKIPPED
        _emit(ring, delim)
    trojan.flags_window &= ~(F_CONVERT | F_NEG | F_SIGN_SEEN)
    trojan.accumulator = 0
    trojan.parser_state = _STEP[ST_G1_MID][delim]
    return event


def update_window(flags: int, percent_raw: int, lo: int, hi: int) -> int:
    """Window flags after a progress report of percent_raw / 10^4 percent,
    for the window [lo, hi) in whole percents.  The window opens at lo and
    closes for good at hi; a report below lo before then closes it again.
    The stream and the whole-file transform both track it here."""
    if flags & F_WINDOW_DONE:
        return flags
    if percent_raw >= hi * SCALE:
        return (flags & ~F_WINDOW_ACTIVE) | F_WINDOW_DONE
    if percent_raw >= lo * SCALE:
        return flags | F_WINDOW_ACTIVE
    return flags & ~F_WINDOW_ACTIVE


def _finish_progress(trojan: TrojanState, policy: TamperPolicy, delim: int) -> str | None:
    """A progress-report percentage finished arriving; update the window
    and skip the rest of the line."""
    value = _scaled_value(trojan)
    trojan.parser_state = _STEP[ST_SKIP][delim]
    if value is None:
        _go_dormant(trojan)
        return EV_OVERFLOW
    flags = update_window(trojan.flags_window, value, policy.window_lo, policy.window_hi)
    trojan.flags_window = flags & ~(F_PROGRESS | F_NEG | F_SIGN_SEEN)
    trojan.accumulator = 0
    return None


def trojan_epilogue(trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy) -> str | None:
    """Run the interceptor for the character the ISR just stored.

    Must be called exactly once after every successful marlin_rx_isr; the
    pair models one uninterruptible ISR execution.  Returns an event tag
    for the simulation driver (None for the common pass-through case).
    """
    if policy.mode is Mode.OFF or trojan.flags_window & F_DORMANT:
        return None
    byte = ring.storage[(ring.head - 1) & ring.mask]
    state = _STEP[trojan.parser_state][byte]
    if state != _CALL:
        trojan.parser_state = state
        return None
    return _act(trojan, ring, policy, byte)


def _act(trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy, byte: int) -> str | None:
    """The epilogue's work for a pair (parser state, byte) that _STEP
    marks _CALL: every other pair only steps the table."""
    state = trojan.parser_state & 0x0F
    digit = _IS_DIGIT[byte]

    if state == ST_V_INT or state == ST_V_FRAC:
        # one capture for E values and P percentages: a value under F_PENDING
        # has no digit yet, one under F_PROGRESS is read and never hidden
        in_frac = state == ST_V_FRAC
        flags = trojan.flags_window
        if digit:
            if flags & F_PENDING:
                _decide_on_first_digit(trojan, ring, policy, byte - 48, in_frac)
                return None
            if not flags & F_CONVERT:
                event = _fold_digit(trojan, byte - 48, in_frac)
                if event is not None:
                    return event
            if not flags & F_PROGRESS:
                _hide(ring)
            return None
        if byte == 0x2E and not in_frac:  # '.'
            if not flags & (F_PENDING | F_PROGRESS):
                _hide(ring)
            trojan.parser_state = ST_V_FRAC
            return None
        if flags & F_PENDING:
            if (byte == 0x2B or byte == 0x2D) and not in_frac and not flags & F_SIGN_SEEN:
                trojan.flags_window = flags | F_SIGN_SEEN | (F_NEG if byte == 0x2D else 0)
            else:
                _pass_finish(trojan, byte)
            return None
        if flags & F_PROGRESS:
            return _finish_progress(trojan, policy, byte)
        return _finish_target(trojan, ring, byte)

    if state == ST_G1_TOK or state == ST_M73_TOK:  # 'E', 'P'
        # A value might be starting; nothing is committed (or hidden)
        # until a digit proves it well-formed.
        flags = (trojan.flags_window | F_PENDING) & ~(F_NEG | F_SIGN_SEEN)
        trojan.flags_window = (flags | F_PROGRESS) if state == ST_M73_TOK else flags
        trojan.accumulator = 0
        trojan.parser_state = ST_V_INT
        return None

    if state == ST_LINE_START:  # 'G', 'M'
        trojan.accumulator = 0
        trojan.parser_state = ST_G_NUM if byte == 0x47 else ST_M_NUM
        return None

    if state == ST_G_NUM:
        if digit:
            event = _fold_digit(trojan, byte - 48, False)
            if event is None:
                trojan.cmd_slot = (ring.head - 1) & ring.mask
            return event
        number = trojan.accumulator
        trojan.accumulator = 0
        trojan.parser_state = _STEP[ST_G1_MID if number == 1 else ST_SKIP][byte]
        return None

    # ST_M_NUM
    if digit:
        return _fold_digit(trojan, byte - 48, False)
    number = trojan.accumulator
    trojan.accumulator = 0
    if policy.mode is Mode.RELOCATION:
        if number == 83:
            # Relative extrusion would break the conservation property;
            # the interceptor quietly stands down for the session.
            _go_dormant(trojan)
            return EV_DORMANT_M83
        if number == 73:
            trojan.parser_state = _STEP[ST_M73_MID][byte]
            return None
    trojan.parser_state = _STEP[ST_SKIP][byte]
    return None


@dataclass
class SimStats:
    chars_in: int = 0
    dropped: int = 0
    edits: int = 0
    conversions: int = 0
    edits_skipped: int = 0
    overflows: int = 0
    dormant_events: int = 0


# the SimStats counters each interceptor event adds one to
_EVENT_COUNTERS = {
    EV_EDIT: ("edits",),
    EV_CONVERT: ("conversions",),
    EV_EDIT_SKIPPED: ("edits_skipped",),
    EV_OVERFLOW: ("overflows", "dormant_events"),
    EV_DORMANT_M83: ("dormant_events",),
}


# characters feed encodes per call of the producer loop
_FEED_SLICE = 4096


class UartSimulation:
    """Wires the ring buffer, the interceptor and a line consumer together.

    ``feed`` and ``feed_char`` run one producer loop over the UTF-8 bytes
    of their text.  Per byte it does what ``marlin_rx_isr`` does (store at
    head unless the ring is full; a dropped byte is counted and nothing
    else runs for it), then what ``trojan_epilogue`` does: it steps the
    pair (parser state, byte) through the step table (see the module
    docstring), or, where the table says ``_CALL``, calls ``_act`` and
    counts the returned event.  It appends a trace entry when a trace is
    attached.  ``feed`` then dequeues every complete line; ``feed_char``
    leaves that to the caller.  With the policy off or the interceptor
    dormant the epilogue would return at once, so the loop skips it.

    Single-threaded by contract: feed / feed_char / drain must not be
    called concurrently.  An optional trace list records one entry per
    stored byte (the debugger's-eye view of the interception).
    """

    def __init__(
        self,
        policy: TamperPolicy,
        rx_buffer_size: int = 128,
        ring_info: RingBufferInfo | None = None,
        trace: list | None = None,
    ):
        if rx_buffer_size > 256:
            raise ValueError("one-byte slot bookkeeping needs a ring of <= 256 bytes")
        self.policy = policy
        self.ring = RingBufferState(
            rx_buffer_size, root_addr=ring_info.root_addr if ring_info else 0
        )
        self.trojan = TrojanState.for_policy(policy, ring_info)
        self.stats = SimStats()
        self.trace = trace

    def _produce(self, data: bytes, out: list[str] | None) -> None:
        """One ISR-and-epilogue step per wire byte; with ``out``, the line
        a stored newline completes is dequeued into it after its step
        (the module docstring says why that is the only one)."""
        ring, trojan, policy, stats = self.ring, self.trojan, self.policy, self.stats
        storage, mask, tail, trace = ring.storage, ring.mask, ring.tail, self.trace
        act, readline, step = _act, consumer_readline, _STEP
        live = policy.mode is not Mode.OFF and not trojan.flags_window & F_DORMANT
        stats.chars_in += len(data)
        for byte in data:
            head = ring.head
            after = (head + 1) & mask
            if after == tail:
                stats.dropped += 1
                continue
            storage[head] = byte
            ring.head = after
            if live:
                state = step[trojan.parser_state][byte]
                if state != _CALL:
                    trojan.parser_state = state
                else:
                    event = act(trojan, ring, policy, byte)
                    if event is not None:
                        for name in _EVENT_COUNTERS[event]:
                            setattr(stats, name, getattr(stats, name) + 1)
                        live = not trojan.flags_window & F_DORMANT
            if trace is not None:
                trace.append(
                    {
                        "char": chr(byte),
                        "head": ring.head,
                        "tail": ring.tail,
                        "parser_state": trojan.parser_state,
                    }
                )
            if byte == 0x0A and out is not None:
                out.append(readline(ring))
                tail = ring.tail

    def feed_char(self, char: int | str) -> None:
        """Deliver one character (its UTF-8 bytes) or one byte."""
        self._produce(char.encode() if isinstance(char, str) else bytes((char,)), None)

    def drain(self) -> list[str]:
        """Dequeue every complete line."""
        lines = []
        while line := consumer_readline(self.ring):
            lines.append(line)
        return lines

    def feed(self, text: str) -> list[str]:
        """Feed a whole document, draining complete lines as they form
        (lines already complete, say from ``feed_char``, come first).

        The text is encoded a slice at a time, so a long document is never
        held twice; a slice of a str never splits a character.
        """
        out = self.drain()
        for start in range(0, len(text), _FEED_SLICE):
            self._produce(text[start : start + _FEED_SLICE].encode(), out)
        return out

    def flush_residual(self) -> str:
        """Visible but line-incomplete bytes left at end of stream."""
        rest = self.ring.visible().decode("utf-8", errors="replace")
        self.ring.tail = self.ring.head
        return rest
