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
accumulator on arrival, and once the value's delimiter shows up the edited
text and the delimiter are written back as one slice at head, split in two
where it wraps past index 0 (it can wrap at most once).  Because the consumer
only ever dequeues complete lines, rewriting earlier cells of the
line-in-progress (the move-command digit, for travel conversion) is safe.

A line completes only on the step that stores its newline, so the
producer loop dequeues one line after that step and none after any
other.  The epilogue takes back only the byte the ISR just stored (a
hidden digit or point, or the delimiter of a targeted value, which
_end_value writes again after the edited text in the same step; on
overflow the digit is written again after the text the value hid, and
the interceptor goes dormant), and the rewinds in _decide_on_first_digit
cover a value's sign, point, letter and space; so no step publishes a
newline it did not store, and none takes one back.

The wire carries bytes: UartSimulation sends the UTF-8 encoding of its
text, as a host writing to the port does, and the consumer decodes each
line as UTF-8.  Only a full ring can cut a multibyte character (the ISR
drops bytes, and SimStats.dropped counts them); the consumer then shows
U+FFFD in its place.  The interceptor's grammar is ASCII, so bytes past
0x7F only ever end a token or sit in a comment.

_produce is the one ISR-and-epilogue step; UartSimulation's feed and
feed_char run it over the wire bytes, and consumer_readline drains it.
marlin_rx_isr and trojan_epilogue are views of _produce on one byte, the
store and then the interceptor's step, kept public for perfbench's
replay, which times them apart.  The line walk is written once, as the
grid _WALK; README's payload rule says what it reads.  _produce steps
_STEP, the grid expanded to every byte, and hands only the pairs it marks
_CALL to _act.  E values and P percentages share one capture, the states
ST_V_INT and ST_V_FRAC, and only they pass through the accumulator;
F_PROGRESS marks a percentage, which is read and never hidden.  One
function, _end_value, ends every capture at its delimiter, and a target
at the end of the stream, and clears every capture flag.  The
32-bit budget is checked once, in the fold, at the digit that carries
the value past it.

All interceptor persistence lives in TrojanState, which serializes to 15
bytes: the memory the stack-steal patch carved out.  There is no room for
anything else, which is why the policy's mode and window bounds are build
constants, not state (the two payloads are separate builds), and why the
eligible-move counter is one byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import TYPE_CHECKING

from .fixedpoint import MAX_RAW, SCALE, div_round_half_away, format_raw
from .policy import Mode, TamperPolicy

if TYPE_CHECKING:  # annotations only: the interceptor does not load the flash model
    from .avr import RingBufferInfo


# parser states (low nibble of parser_state; the high nibble counts the
# decimals captured so far in ST_V_FRAC)
ST_LINE_START = 0
ST_G_NUM = 1  # after 'G' and any leading zeros
ST_M_NUM = 2  # after 'M' and any leading zeros
ST_G1_MID = 3  # inside a G1 line, mid-token
ST_G1_TOK = 4  # inside a G1 line, previous char was a space
ST_G_ONE = 5  # after G1's '1'
ST_V_INT = 6  # a captured value (G1 E or M73 P), before its point
ST_V_FRAC = 7  # a captured value, after its point
ST_M73_MID = 8
ST_M73_TOK = 9
ST_M_7 = 10
ST_M_73 = 11
ST_M_8 = 12
ST_SKIP = 13
ST_M_83 = 14

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

# free cells an edit needs: the worst-case reduced value (a sign, six
# integer digits, a point, four decimals) and the re-emitted delimiter;
# an overflowing value's hidden text (at most the same eleven cells past
# the sign) and the digit after it fit as well
_EDIT_ROOM = 13

# the fold's budget by the decimals a value has after a digit (0-4; 5 for
# the fifth, which only rounds): MAX_RAW over the power of ten that scales
# the value to 1e-4, so a value past 32 bits overflows at the digit that
# carries it there
_FOLD_LIMIT = tuple(MAX_RAW // 10 ** (4 - d) for d in range(5)) + (MAX_RAW,)

# ASCII 0-9 only, as in the firmware's NUMERIC() and the g-code parser
# (chr(byte).isdigit() would also take latin-1's superscripts 2, 3 and 1)
_IS_DIGIT = bytes(48 <= b <= 57 for b in range(256))


# The line walk, stated once: _WALK has a row for each stepped parser
# state, in the order of their numbers (every byte of a captured value,
# ST_V_INT or ST_V_FRAC, goes to _act), and a column for each byte class
# of _CLASS.  A cell is the next parser state, or ff (_CALL) where _act
# must run.  _STEP expands the grid to a 256-byte row per parser state.
_COLUMNS = (b"\n", b" ", b"0", b"1", b"3", b"7", b"8", b"24569", b";", b"E", b"G", b"M", b"P")
_WIDTH = len(_COLUMNS) + 1  # the last column holds every other byte
_CLASS = bytes(next((c for c, chars in enumerate(_COLUMNS) if b in chars), _WIDTH - 1) for b in range(256))
_WALK = bytes.fromhex(
    # LF sp  0  1  3  7  8 24569 ;  E  G  M  P  other
    " 00 00 0d 0d 0d 0d 0d 0d 0d 0d 01 02 0d 0d"  # ST_LINE_START: no command follows a CR
    " 00 0d 01 ff 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_G_NUM: G1's '1' records cmd_slot
    " 00 0d 02 0d 0d 0a 0c 0d 0d 0d 0d 0d 0d 0d"  # ST_M_NUM
    " 00 04 03 03 03 03 03 03 0d 03 03 03 03 03"  # ST_G1_MID
    " 00 04 03 03 03 03 03 03 0d ff 03 03 03 03"  # ST_G1_TOK: an 'E' may start a value
    " 00 04 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_G_ONE
    " 00 09 08 08 08 08 08 08 0d 08 08 08 08 08"  # ST_M73_MID
    " 00 09 08 08 08 08 08 08 0d 08 08 08 ff 08"  # ST_M73_TOK: a 'P' may start a percentage
    " 00 0d 0d 0d 0b 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_M_7
    " 00 ff 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_M_73: only relocation reads progress
    " 00 0d 0d 0d 0e 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_M_8
    " 00 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d 0d"  # ST_SKIP: a comment too
    " ff ff 0d 0d 0d 0d 0d 0d ff ff ff ff ff ff"  # ST_M_83: relocation goes dormant
)
_STEPPED = [state for state in range(ST_M_83 + 1) if state not in (ST_V_INT, ST_V_FRAC)]
_STEP = [bytes([_CALL]) * 256] * 256  # the states _WALK leaves out share one all-_CALL row
for _row, _state in enumerate(_STEPPED):
    _STEP[_state] = bytes(_WALK[_row * _WIDTH + column] for column in _CLASS)


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


# TrojanState's 15 bytes, in field order
_STATE = struct.Struct("<HHHBiBBBB")


@dataclass(slots=True)
class TrojanState:
    """Interceptor persistence; serializes to exactly 15 bytes, from which
    from_bytes restores it (the module docstring says what is not state).

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
        state = cls(policy_param=policy.param)
        if ring_info is not None:
            state.head_copy = ring_info.head_addr
            state.tail_copy = ring_info.tail_addr
            state.root_addr = ring_info.root_addr
        return state

    @classmethod
    def from_bytes(cls, blob: bytes) -> "TrojanState":
        return cls(*_STATE.unpack(blob))

    def to_bytes(self) -> bytes:
        return _STATE.pack(*_state_values(self))


_state_values = attrgetter(*(f.name for f in fields(TrojanState)))  # in the order from_bytes takes them


def _go_dormant(trojan: TrojanState):
    trojan.flags_window = (trojan.flags_window | F_DORMANT) & ~F_CONVERT


def _scaled_value(trojan: TrojanState) -> int:
    """Close out value capture: accumulator scaled to 10^4, signed.  The
    fold already held it to the 32-bit budget."""
    frac = trojan.parser_state >> 4
    raw = trojan.accumulator
    if frac < 4:
        raw *= 10 ** (4 - frac)
    return -raw if trojan.flags_window & F_NEG else raw


def _decide_on_first_digit(
    trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy, digit: int, in_frac: bool
) -> str | None:
    """The first digit makes the token a well-formed value: commit to an
    edit (reduction), a conversion or a verbatim pass (relocation), or
    read on (a progress percentage).

    Any sign or decimal point that already passed through is taken back
    here; until this moment nothing was hidden, so a token that never
    produces a digit changes nothing.  The rewinds stay inside the current
    line (digit, sign, point, letter and its space), so they never take
    back a newline.  An edit commits only when the ring, with the prefix
    taken back, holds _EDIT_ROOM cells; otherwise the value passes
    verbatim and the skip is reported.
    """
    flags = trojan.flags_window & ~F_PENDING
    visible_prefix = 1 + (1 if flags & F_SIGN_SEEN else 0) + (1 if in_frac else 0)
    reduction = policy.mode is Mode.REDUCTION
    if flags & F_PROGRESS or reduction and ring.free_space() + visible_prefix >= _EDIT_ROOM:
        if not flags & F_PROGRESS:
            ring.head = (ring.head - visible_prefix) & ring.mask
        trojan.flags_window = flags
        trojan.accumulator = digit
        trojan.parser_state = (0x10 | ST_V_FRAC) if in_frac else ST_V_INT
        return None
    if flags & F_WINDOW_ACTIVE:  # only relocation tracks the window
        trojan.gcode_counter += 1
        if trojan.gcode_counter >= trojan.policy_param:
            trojan.gcode_counter = 0
            # unpublish the whole token so far plus the letter and its space
            ring.head = (ring.head - visible_prefix - 2) & ring.mask
            ring.storage[trojan.cmd_slot] = 0x30  # '0'
            trojan.flags_window = flags | F_CONVERT
            trojan.parser_state = ST_V_FRAC if in_frac else ST_V_INT
            return None
    # kept: the value stays exactly as received, later chars are ordinary
    trojan.flags_window = flags & ~(F_NEG | F_SIGN_SEEN)
    trojan.parser_state = ST_G1_MID
    return EV_EDIT_SKIPPED if reduction else None


def _hidden_text(trojan: TrojanState) -> str:
    """The text a target value hid so far: its sign, its folded digits and,
    in ST_V_FRAC, its point before the decimals counted in parser_state's
    high nibble.  Leading zeros fold to 0 and are not kept.  Called only
    on the fold's overflow, where the value's integer part has five
    digits or more, so the point never comes before the first digit."""
    flags, digits = trojan.flags_window, str(trojan.accumulator)
    sign = "-" if flags & F_NEG else "+" if flags & F_SIGN_SEEN else ""
    if trojan.parser_state & 0x0F == ST_V_INT:
        return sign + digits
    point = len(digits) - (trojan.parser_state >> 4)
    return f"{sign}{digits[:point]}.{digits[point:]}"


def _write_back(ring: RingBufferState, text: str, last: int | None) -> None:
    """Publish text at head, then last: the byte the ISR just stored, taken
    back and written again after the text (None: no such byte).  One slice
    write, two where it wraps past index 0."""
    data, head = bytearray(text, "ascii"), ring.head
    if last is not None:
        head = (head - 1) & ring.mask
        data.append(last)
    end = head + len(data)
    if end <= ring.size:
        ring.storage[head:end] = data
    else:  # wraps past index 0
        split = ring.size - head
        ring.storage[head:] = data[:split]
        ring.storage[: end - ring.size] = data[split:]
    ring.head = end & ring.mask


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


def _end_value(
    trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy, delim: int | None
) -> str | None:
    """A captured value ended: its delimiter delim just arrived, or (delim
    None) the stream ended inside a target.  Every capture flag clears.

    A token with no digit was never hidden, so it stays as received; it
    makes its line malformed, which the transform leaves alone, so the
    rest of the line is skipped, as after a percentage, which updates the
    window.  A target resumes its G1 line: a converted one has nothing to
    write back (a delimiter the ISR just stored already sits where the
    removed token began), an edited one has its text written back before
    delim, in the _EDIT_ROOM cells _decide_on_first_digit left."""
    flags = trojan.flags_window
    if flags & (F_PENDING | F_PROGRESS):
        event, resume = None, ST_SKIP
        if not flags & F_PENDING:
            flags = update_window(flags, _scaled_value(trojan), policy.window_lo, policy.window_hi)
    elif flags & F_CONVERT:
        event, resume = EV_CONVERT, ST_G1_MID
    else:
        value = _scaled_value(trojan) * (100 - trojan.policy_param)
        _write_back(ring, format_raw(div_round_half_away(value, 100)), delim)
        event, resume = EV_EDIT, ST_G1_MID
    trojan.flags_window = flags & ~(F_PENDING | F_PROGRESS | F_CONVERT | F_NEG | F_SIGN_SEEN)
    trojan.parser_state = resume if delim is None else _STEP[resume][delim]
    return event


def _act(trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy, byte: int) -> str | None:
    """The interceptor's work for a pair (parser state, byte) that _STEP
    marks _CALL: every other pair only steps the table."""
    state = trojan.parser_state & 0x0F

    if state == ST_V_INT or state == ST_V_FRAC:
        # one capture for E values and P percentages: a value under F_PENDING
        # has no digit yet, one under F_PROGRESS is read and never hidden
        in_frac = state == ST_V_FRAC
        flags = trojan.flags_window
        if _IS_DIGIT[byte]:
            if flags & F_PENDING:
                return _decide_on_first_digit(trojan, ring, policy, byte - 48, in_frac)
            frac = trojan.parser_state >> 4
            if not flags & F_CONVERT and frac <= 4:
                # Fold (command numbers never get here): integer digits and
                # four decimals, counted in parser_state's high nibble, shift
                # in; the fifth only rounds half up and later ones drop, so
                # values are captured at 1e-4.  That value never falls as
                # digits arrive, so the budget is checked here alone: past
                # 32 bits once scaled (_FOLD_LIMIT), the interceptor goes
                # dormant for the session.
                acc = trojan.accumulator
                acc = acc + (byte >= 0x35) if frac == 4 else acc * 10 + byte - 48
                if acc > _FOLD_LIMIT[frac + in_frac]:
                    # dormant; a target's hidden text goes back before this digit
                    _go_dormant(trojan)
                    if not flags & F_PROGRESS:
                        _write_back(ring, _hidden_text(trojan), byte)
                    return EV_OVERFLOW
                trojan.accumulator = acc
                if in_frac:
                    trojan.parser_state += 0x10
            if not flags & F_PROGRESS:
                ring.head = (ring.head - 1) & ring.mask  # hide the digit
            return None
        if byte == 0x2E and not in_frac:  # '.'
            if not flags & (F_PENDING | F_PROGRESS):
                ring.head = (ring.head - 1) & ring.mask
            trojan.parser_state = ST_V_FRAC
            return None
        if flags & F_PENDING and (byte == 0x2B or byte == 0x2D) and not in_frac and not flags & F_SIGN_SEEN:
            trojan.flags_window = flags | F_SIGN_SEEN | (F_NEG if byte == 0x2D else 0)
            return None
        return _end_value(trojan, ring, policy, byte)

    if state == ST_G1_TOK or state == ST_M73_TOK:  # 'E', 'P'
        # A value might be starting; nothing is committed (or hidden)
        # until a digit proves it well-formed.
        flags = (trojan.flags_window | F_PENDING) & ~(F_NEG | F_SIGN_SEEN)
        trojan.flags_window = (flags | F_PROGRESS) if state == ST_M73_TOK else flags
        trojan.parser_state = ST_V_INT
        return None

    if state == ST_G_NUM:  # G1's '1': a conversion rewrites this slot
        trojan.cmd_slot = (ring.head - 1) & ring.mask
        trojan.parser_state = ST_G_ONE
        return None

    relocation = policy.mode is Mode.RELOCATION
    if state == ST_M_73:  # its space: only relocation tracks progress
        trojan.parser_state = ST_M73_TOK if relocation else ST_SKIP
        return None

    # ST_M_83, the byte that ends the command
    if relocation:
        # A dropped target is caught up only by a later absolute one, and
        # under relative extrusion none comes; the interceptor quietly
        # stands down for the session (a target converted since the last
        # absolute one stays lost).
        _go_dormant(trojan)
        return EV_DORMANT_M83
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

    def count(self, event: str) -> None:
        """Add one to the counters of an interceptor event."""
        if event == EV_EDIT:
            self.edits += 1
        elif event == EV_CONVERT:
            self.conversions += 1
        elif event == EV_EDIT_SKIPPED:
            self.edits_skipped += 1
        elif event == EV_OVERFLOW:
            self.overflows += 1
            self.dormant_events += 1
        elif event == EV_DORMANT_M83:
            self.dormant_events += 1


def _produce(
    ring: RingBufferState, trojan: TrojanState | None, policy: TamperPolicy, stats: SimStats,
    data: bytes, out: list[str] | None,
) -> None:
    """One ISR-and-epilogue step per wire byte: store at head unless the
    ring is full (a dropped byte is counted and nothing else runs for it),
    then step the pair (parser state, byte) through _STEP, or hand it to
    _act where _STEP says _CALL and count the event.  With the policy off
    or the interceptor dormant there is nothing to step, and trojan is
    not read.  With ``out``, the line a stored newline completes is
    dequeued into it after its step (the module docstring says why that
    is the only one)."""
    storage, mask, tail = ring.storage, ring.mask, ring.tail
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
                    stats.count(event)
                    live = not trojan.flags_window & F_DORMANT
        if byte == 0x0A and out is not None:
            out.append(readline(ring))
            tail = ring.tail


_OFF = TamperPolicy.off()


def marlin_rx_isr(ring: RingBufferState, char: int | str) -> bool:
    """The receive ISR alone: _produce on one byte with the policy off.
    Returns True if the byte was stored at head, False if the ring was
    full (the byte is dropped and the ring left as it was)."""
    stats = SimStats()
    _produce(ring, None, _OFF, stats, bytes((ord(char) if isinstance(char, str) else char,)), None)
    return not stats.dropped


def trojan_epilogue(trojan: TrojanState, ring: RingBufferState, policy: TamperPolicy) -> None:
    """The interceptor's step for the byte the ISR just stored: that byte
    is taken back and run through _produce, which stores it in the same
    cell and steps it.  Must follow each marlin_rx_isr that stored."""
    ring.head = (ring.head - 1) & ring.mask
    _produce(ring, trojan, policy, SimStats(), bytes((ring.storage[ring.head],)), None)


class UartSimulation:
    """Wires the ring buffer, the interceptor and a line consumer together.

    ``feed`` and ``feed_char`` run ``_produce``, the one ISR-and-epilogue
    step, over the UTF-8 bytes of their text; ``marlin_rx_isr`` and
    ``trojan_epilogue`` are views of it.  ``feed`` then dequeues every
    complete line; ``feed_char`` leaves that to the caller.

    Single-threaded by contract: feed / feed_char / drain must not be
    called concurrently.
    """

    def __init__(
        self, policy: TamperPolicy, rx_buffer_size: int = 128, ring_info: RingBufferInfo | None = None
    ):
        if rx_buffer_size > 256:
            raise ValueError("one-byte slot bookkeeping needs a ring of <= 256 bytes")
        self.policy = policy
        self.ring = RingBufferState(rx_buffer_size)
        self.trojan = TrojanState.for_policy(policy, ring_info)
        self.stats = SimStats()

    def feed_char(self, char: int | str) -> None:
        """Deliver one character (its UTF-8 bytes) or one byte.  A character
        UTF-8 cannot encode (a lone surrogate) raises UnicodeEncodeError, a
        ValueError, and nothing is stored."""
        data = char.encode() if isinstance(char, str) else bytes((char,))
        _produce(self.ring, self.trojan, self.policy, self.stats, data, None)

    def drain(self) -> list[str]:
        """Dequeue every complete line."""
        lines = []
        while line := consumer_readline(self.ring):
            lines.append(line)
        return lines

    def feed(self, text: str) -> list[str]:
        """Feed a whole document, draining complete lines as they form
        (lines already complete, say from ``feed_char``, come first).

        The text is encoded whole, once, so its UTF-8 bytes are held
        beside it while the call runs.  Text that UTF-8 cannot encode (a
        lone surrogate) raises UnicodeEncodeError, a ValueError, before any
        of it is stored or any line dequeued: the ring, ``stats`` and
        ``trojan`` are as they were.
        """
        data = text.encode()
        out = self.drain()
        _produce(self.ring, self.trojan, self.policy, self.stats, data, out)
        return out

    def flush_residual(self) -> str:
        """Visible but line-incomplete bytes left at end of stream.

        A target value still captured there is finished first, as its
        delimiter would finish it: the edit is written back and counted,
        and no delimiter is re-emitted.  A stream that ends inside a token
        with no digit yet or inside a percentage leaves the text as
        received and the interceptor's state untouched.
        """
        trojan = self.trojan
        captured = (trojan.parser_state & 0x0F) in (ST_V_INT, ST_V_FRAC)
        if captured and not trojan.flags_window & (F_PENDING | F_PROGRESS | F_DORMANT):
            self.stats.count(_end_value(trojan, self.ring, self.policy, None))
        rest = self.ring.visible().decode("utf-8", errors="replace")
        self.ring.tail = self.ring.head
        return rest
