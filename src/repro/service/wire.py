"""The service's wire schema: every message the farm speaks, as bytes.

A message is a verb and typed fields — :data:`MESSAGES` declares each
verb's — behind a four-byte big-endian length prefix: the socket
(:mod:`repro.service.protocol`) sends the whole frame, the worker pipe
the same bytes from past the prefix through ``send_bytes`` /
``recv_bytes``.  Every field is a one-byte tag and its content:

* **plain values** — ``None``, bools, 64-bit ints, doubles, UTF-8
  strings, and lists, tuples and dicts of values (a dict keeps its int
  keys: stats report percentiles under ``50``, ``95``, ...);
* **arrays** — a whitelisted dtype (:data:`DTYPES`), the rank, the byte
  count and the shape, then the raw little-endian buffer, 8-byte
  aligned, so a decoded array is a view of the received bytes rather
  than a copy;
* **records** — a :class:`FrameRequest`, its decoder as its config (a
  :class:`SphereDecoder` or :class:`ListSphereDecoder`: a class tag plus
  the constructor's fields: whatever
  :func:`~repro.service.protocol.request_signature` enumerates and
  ``column_ordering``), its :class:`PhyConfig`, both frame results with
  their :class:`StreamDecision` lists, :class:`ComplexityCounters`,
  :class:`FrameTrace` and a resolved frame's payload
  (:class:`Resolution`).  The receiving side builds each distinct decoder
  and config once, from a cache and on the cached :func:`qam`
  constellation, so ``config.constellation is decoder.constellation``
  survives the trip; a result's point table travels as its
  constellation's order.

Nothing outside the schema travels.  An unknown verb, tag, type, dtype
or enumerator is refused with ``ValueError``, on either side, and every
count, length, rank and shape is checked against its declared cap
(``MAX_*``, :data:`ORDERS`) before anything is allocated or built, so
the bytes a peer sends can cost no more than their own length and can
construct nothing but the records above.

**Encoded once.**  Requests and results are *sealable*: their body
carries its own length.  A hop that forwards one — the server passing a
client's request on to its worker, the farm passing a worker's result
on to the client — decodes the message with ``sealed=True``, holds a
:class:`Sealed` in the record's place and splices its bytes unchanged
into the next message; whoever reads the fields calls
:meth:`Sealed.open` (the server opens a request to validate and route
it, and still forwards the client's bytes).
"""

from __future__ import annotations

import math
import struct
from functools import lru_cache

import numpy as np

from ..coding.convolutional import ConvolutionalCode
from ..constellation.qam import qam
from ..frame.results import FrameDecodeResult, SoftFrameResult
from ..obs.trace import FrameTrace
from ..ofdm.params import OfdmParams
from ..phy.config import PhyConfig
from ..phy.receiver import StreamDecision
from ..runtime.queue import FrameRequest
from ..runtime.session import RESOLUTIONS
from ..sphere.counters import ComplexityCounters
from ..sphere.decoder import ENUMERATORS, SphereDecoder
from ..sphere.soft import ListSphereDecoder

__all__ = ["DTYPES", "MAX_MESSAGE_BYTES", "MESSAGES", "ORDERS", "Resolution",
           "Sealed", "decode", "encode", "opened"]

#: Largest message either side accepts, in bytes (the length prefix's
#: cap).  A 4x4 x 64-subcarrier x 4-symbol request encodes to ~33 KB
#: and its hard result to ~3.2 KB, so 64 MiB is three orders of
#: magnitude of headroom — and sixty-four times less than what the
#: 32-bit prefix could otherwise make a receiver allocate.
MAX_MESSAGE_BYTES = 64 << 20

#: Caps on what one field may declare, checked before it is built.
MAX_ITEMS = 1 << 16          # entries in one list, tuple or dict
MAX_DEPTH = 32               # nesting of containers and records
MAX_STR_BYTES = 1 << 20      # one string, UTF-8 (a metrics scrape fits)
MAX_NDIM = 6                 # rank of one array
MAX_LIST_SIZE = 1024         # a list decoder's list (lane state grows with it)
MAX_CONSTRAINT_LENGTH = 10   # a code's register: 2**9 trellis states
MAX_GENERATORS = 8           # a code's generator polynomials
MAX_FFT_SIZE = 4096          # an OFDM numerology's FFT
MAX_PAYLOAD_BITS = 1 << 20   # a PhyConfig's payload per stream

#: The constellation orders a decoder, config or point table may name.
ORDERS = (4, 16, 64, 256, 1024, 4096)

#: Array dtypes, by wire code (all little-endian).
DTYPES = tuple(np.dtype(code) for code in (
    "?", "<i1", "<i2", "<i4", "<i8", "<u1", "<u2", "<u4", "<u8",
    "<f4", "<f8", "<c8", "<c16"))
_DTYPE_CODE = {dtype: code for code, dtype in enumerate(DTYPES)}

_COLUMN_ORDERINGS = ("none", "norm")

# -- tags ----------------------------------------------------------------
(NONE, FALSE, TRUE, INT, FLOAT, STR, LIST, TUPLE, DICT, ARRAY,
 HARD_DECODER, LIST_DECODER, PHY_CONFIG, POINTS, COUNTERS, DECISION, TRACE,
 RESOLUTION, REQUEST, HARD_RESULT, SOFT_RESULT) = range(21)

_KEYS = (NONE, FALSE, TRUE, INT, FLOAT, STR)
_NUMBERS = (NONE, INT, FLOAT)
_DECODERS = (HARD_DECODER, LIST_DECODER)

_I, _S, _D, _R = (INT,), (STR,), (DICT,), (REQUEST,)

#: Every verb and the signatures it may carry: one tuple of allowed
#: tags per field (``None``: any value).  The socket speaks the service
#: verbs (:data:`repro.service.protocol.VERBS`, each in its first
#: signature) and the two replies; the worker pipe speaks ``("submit",
#: frame_id, request)``, ``("cancel", frame_id)``, ``("stats",)`` and
#: ``("stop",)`` in, and ``("done", shard, payload)``, ``("stats",
#: shard, summary)`` and ``("beat", shard)`` out.
MESSAGES = {
    "submit": ((_R,), (_I, _R)),
    "poll": ((),),
    "cancel": ((_I,),),
    "stats": ((), (_I, _D)),
    "metrics": ((),),
    "ok": ((None,),),
    "error": ((_S,),),
    "done": ((_I, (RESOLUTION,)),),
    "beat": ((_I,),),
    "stop": ((),),
}

_VERB_NAMES = tuple(MESSAGES)
_VERB_INDEX = {verb: index for index, verb in enumerate(_VERB_NAMES)}
_SIGNATURES = {(index, len(signature)): signature
               for index, signatures in enumerate(MESSAGES.values())
               for signature in signatures}

# -- fixed layouts -------------------------------------------------------
_PREFIX = struct.Struct("!I")
_HEAD = struct.Struct("<BB")                # verb, field count
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_ARRAY = struct.Struct("<BBI")              # dtype code, rank, byte count
_DIMS = tuple(struct.Struct(f"<{rank}I") for rank in range(MAX_NDIM + 1))
# A hard decoder: order, enumerator, pruning, budget (-1: none), initial
# radius, column ordering.  A list decoder: order, enumerator, pruning,
# budget, list size, clamp.
_HARD = struct.Struct("<HBBqdB")
_LIST = struct.Struct("<HBBqId")
# A PhyConfig: order, payload bits, FFT size, cyclic prefix, sample
# rate, data and pilot bin counts, constraint length (0: uncoded) and
# generator count; then the generators and the bins.
_PHY = struct.Struct("<HqIIdIIBB")
_ORDER = struct.Struct("<H")
_COUNTERS = struct.Struct("<6q")
# A Resolution: frame id, resolution, degraded, missed deadline.
_RESOLVED = struct.Struct("<qBBB")
_RESOLVED_AS = tuple(RESOLUTIONS)

#: Where the message body starts in an encoded frame; array buffers and
#: record bodies are aligned relative to it.
_ORIGIN = _PREFIX.size


def _refuse(message: str):
    raise ValueError(message)


def _order(order: int) -> int:
    if order not in ORDERS:
        _refuse(f"{order}-QAM is not in the wire schema")
    return order


# ----------------------------------------------------------------------
# Sealed records
# ----------------------------------------------------------------------

class Sealed:
    """A request or result still in the bytes it arrived as.

    Encoding a :class:`Sealed` splices those bytes into the new message
    unchanged; :meth:`open` decodes them — once, for whoever reads the
    fields.  Its arrays are views of the received buffer."""

    __slots__ = ("tag", "body", "_value")

    def __init__(self, tag: int, body: memoryview) -> None:
        self.tag = tag
        self.body = body
        self._value = None

    def open(self):
        if self._value is None:
            self._value = _guarded(_open_body, self.tag, self.body)
        return self._value


class Resolution(dict):
    """A resolved frame's payload — ``frame_id``, ``resolution``,
    ``degraded``, ``missed_deadline``, ``latency_s``, ``trace`` and
    ``result``, in that order — as a dict every hop reads by key
    (:func:`repro.service.protocol.resolution_payload` builds it), and
    as one fixed record on the wire."""

    __slots__ = ()


def opened(value):
    """``value`` itself, or the record a :class:`Sealed` holds."""
    return value.open() if type(value) is Sealed else value


def _open_body(tag: int, body: memoryview):
    value, end = _RECORD_DECODERS[tag](body, 0, 0, False)
    if end != len(body):
        _refuse("record body has trailing bytes")
    return value


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

def encode(message: tuple) -> bytearray:
    """One message as a length-prefixed frame: the socket sends all of
    it, the worker pipe everything past the first four bytes."""
    if type(message) is not tuple or not message:
        _refuse("a message is a non-empty (verb, *fields) tuple")
    verb, fields = message[0], message[1:]
    index = _VERB_INDEX.get(verb) if type(verb) is str else None
    if index is None:
        _refuse(f"unknown verb {verb!r}")
    signature = _SIGNATURES.get((index, len(fields)))
    if signature is None:
        _refuse(f"{verb!r} takes no {len(fields)} fields")
    out = bytearray(_ORIGIN)
    out += _HEAD.pack(index, len(fields))
    try:
        for value, tags in zip(fields, signature):
            start = len(out)
            _encode(out, value, 0)
            if tags is not None and out[start] not in tags:
                _refuse(f"{verb!r} cannot carry {type(value).__name__}")
    except (struct.error, OverflowError, KeyError) as error:
        raise ValueError(f"value out of range for the wire: {error}") \
            from None
    size = len(out) - _ORIGIN
    if size > MAX_MESSAGE_BYTES:
        _refuse(f"a {size}-byte message exceeds the {MAX_MESSAGE_BYTES}"
                "-byte cap")
    _PREFIX.pack_into(out, 0, size)
    return out


def _pad(out: bytearray) -> None:
    out += bytes((_ORIGIN - len(out)) & 7)


def _encode(out: bytearray, value, depth: int) -> None:
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _encoder_for(value)
    encoder(out, value, depth)


def _encoder_for(value):
    """Subclasses and numpy scalars: what a schema value they are."""
    if isinstance(value, (bool, np.bool_)):
        return _encode_bool
    if isinstance(value, (int, np.integer)):
        return _encode_int
    if isinstance(value, (float, np.floating)):
        return _encode_float
    if isinstance(value, str):
        return _encode_str
    if isinstance(value, np.ndarray):
        return _encode_array
    if isinstance(value, (list, tuple)):
        return _encode_list
    if isinstance(value, dict):
        return _encode_dict
    _refuse(f"{type(value).__name__} is not in the wire schema")


def _encode_none(out, value, depth):
    out.append(NONE)


def _encode_bool(out, value, depth):
    out.append(TRUE if value else FALSE)


def _encode_int(out, value, depth):
    out.append(INT)
    out += _I64.pack(int(value))


def _encode_float(out, value, depth):
    out.append(FLOAT)
    out += _F64.pack(value)


def _encode_str(out, value, depth):
    data = value.encode()
    if len(data) > MAX_STR_BYTES:
        _refuse(f"a {len(data)}-byte string exceeds the {MAX_STR_BYTES}"
                "-byte cap")
    out.append(STR)
    out += _U32.pack(len(data))
    out += data


def _container(out, tag, count, depth):
    if count > MAX_ITEMS:
        _refuse(f"{count} items exceed the {MAX_ITEMS}-item cap")
    if depth >= MAX_DEPTH:
        _refuse(f"nesting deeper than {MAX_DEPTH}")
    out.append(tag)
    out += _U32.pack(count)


def _encode_list(out, value, depth):
    _container(out, LIST if isinstance(value, list) else TUPLE, len(value),
               depth)
    for item in value:
        _encode(out, item, depth + 1)


def _encode_dict(out, value, depth):
    _container(out, DICT, len(value), depth)
    for key, item in value.items():
        start = len(out)
        _encode(out, key, depth + 1)
        if out[start] not in _KEYS:
            _refuse(f"a {type(key).__name__} cannot key a dict")
        _encode(out, item, depth + 1)


def _encode_array(out, value, depth):
    code = _DTYPE_CODE.get(value.dtype)
    if code is None:
        _refuse(f"dtype {value.dtype} is not in the wire schema")
    if value.ndim > MAX_NDIM:
        _refuse(f"a rank-{value.ndim} array exceeds the rank cap "
                f"{MAX_NDIM}")
    if value.nbytes > MAX_MESSAGE_BYTES:
        _refuse(f"a {value.nbytes}-byte array exceeds the message cap")
    out.append(ARRAY)
    out += _ARRAY.pack(code, value.ndim, value.nbytes)
    out += _DIMS[value.ndim].pack(*value.shape)
    _pad(out)
    out += np.ascontiguousarray(value).data


def _encode_fields(out, value, fields, depth):
    """A record's fields in declared order, each tag checked."""
    if depth >= MAX_DEPTH:
        _refuse(f"nesting deeper than {MAX_DEPTH}")
    for name, tags, encoder in fields:
        start = len(out)
        encoder(out, getattr(value, name), depth + 1)
        if out[start] not in tags:
            _refuse(f"{type(value).__name__}.{name} cannot be a "
                    f"{type(getattr(value, name)).__name__}")


def _sealable(tag, fields):
    """Encoder of a sealable record: tag, body length, aligned body."""
    def encode_record(out, value, depth):
        out.append(tag)
        at = len(out)
        out += bytes(_U32.size)
        _pad(out)
        start = len(out)
        _encode_fields(out, value, fields, depth)
        _U32.pack_into(out, at, len(out) - start)
    return encode_record


def _encode_sealed(out, value, depth):
    out.append(value.tag)
    out += _U32.pack(len(value.body))
    _pad(out)
    out += value.body


def _encode_decoder(out, value, depth):
    order = _order(value.constellation.order)
    enumerator = ENUMERATORS.index(value.enumerator)
    budget = -1 if value.node_budget is None else value.node_budget
    if type(value) is ListSphereDecoder:
        if (value.initial_radius_sq != math.inf
                or value.column_ordering != "none"):
            _refuse("a ListSphereDecoder's initial radius and column "
                    "ordering are not constructor fields")
        out.append(LIST_DECODER)
        out += _LIST.pack(order, enumerator, value.geometric_pruning,
                          budget, value.list_size, value.clamp)
    else:
        out.append(HARD_DECODER)
        out += _HARD.pack(order, enumerator, value.geometric_pruning,
                          budget, value.initial_radius_sq,
                          _COLUMN_ORDERINGS.index(value.column_ordering))


def _encode_config(out, value, depth):
    code, ofdm = value.code, value.ofdm
    polynomials = () if code is None else code.polynomials
    out.append(PHY_CONFIG)
    out += _PHY.pack(_order(value.constellation.order), value.payload_bits,
                     ofdm.fft_size, ofdm.cp_length, ofdm.sample_rate_hz,
                     len(ofdm.data_subcarriers), len(ofdm.pilot_subcarriers),
                     0 if code is None else code.constraint_length,
                     len(polynomials))
    out += struct.pack(f"<{len(polynomials)}I"
                       f"{len(ofdm.data_subcarriers)}i"
                       f"{len(ofdm.pilot_subcarriers)}i",
                       *polynomials, *ofdm.data_subcarriers,
                       *ofdm.pilot_subcarriers)


def _encode_counters(out, value, depth):
    out.append(COUNTERS)
    out += _COUNTERS.pack(value.ped_calcs, value.visited_nodes,
                          value.expanded_nodes, value.leaves,
                          value.geometric_prunes, value.complex_mults)


def _encode_points(out, value, depth):
    """A result's point table: its constellation's order when it is
    that constellation's own table, else the array itself."""
    order = np.size(value)
    if order in ORDERS and value is qam(order).points:
        out.append(POINTS)
        out += _ORDER.pack(order)
    else:
        _encode(out, value, depth)


def _encode_resolution(out, value, depth):
    if len(value) != 4 + len(_RESOLUTION_TAIL):
        _refuse(f"a Resolution has {len(value)} keys, not "
                f"{4 + len(_RESOLUTION_TAIL)}")
    out.append(RESOLUTION)
    out += _RESOLVED.pack(value["frame_id"],
                          _RESOLVED_AS.index(value["resolution"]),
                          bool(value["degraded"]),
                          bool(value["missed_deadline"]))
    for name, tags in _RESOLUTION_TAIL:
        start = len(out)
        _encode(out, value[name], depth + 1)
        if out[start] not in tags:
            _refuse(f"a Resolution's {name} cannot be a "
                    f"{type(value[name]).__name__}")


def _record(tag, fields):
    def encode_record(out, value, depth):
        out.append(tag)
        _encode_fields(out, value, fields, depth)
    return encode_record


# -- record schemas: (attribute, allowed tags, encoder), in wire order --
def _fields(*fields):
    return tuple(spec if len(spec) == 3 else (*spec, _encode)
                 for spec in fields)


_DECISION_FIELDS = _fields(("payload_bits", (ARRAY,)),
                           ("crc_ok", (FALSE, TRUE)))
_TRACE_FIELDS = _fields(("frame_id", (INT,)), ("labels", (DICT,)),
                        ("events", (LIST,)), ("dropped", (INT,)))
_REQUEST_FIELDS = _fields(
    ("channels", (ARRAY,)), ("received", (ARRAY,)),
    ("decoder", _DECODERS), ("noise_variance", _NUMBERS),
    ("config", (NONE, PHY_CONFIG)), ("num_pad_bits", (INT,)),
    ("deadline_s", _NUMBERS), ("priority", (INT,)), ("metadata", (DICT,)))
_RESOLUTION_TAIL = (("latency_s", _NUMBERS), ("trace", (NONE, TRACE)),
                    ("result", (NONE, HARD_RESULT, SOFT_RESULT)))
_TABLE = ("points", (POINTS, ARRAY), _encode_points)
_HARD_RESULT_FIELDS = _fields(
    ("symbol_indices", (ARRAY,)), ("distances_sq", (ARRAY,)),
    ("counters", (COUNTERS,)), _TABLE, ("decisions", (NONE, LIST)))
_SOFT_RESULT_FIELDS = _fields(
    ("llrs", (ARRAY,)), ("symbol_indices", (ARRAY,)),
    ("list_sizes", (ARRAY,)), ("counters", (COUNTERS,)), _TABLE,
    ("decisions", (NONE, LIST)))

_ENCODERS = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    list: _encode_list,
    tuple: _encode_list,
    dict: _encode_dict,
    np.ndarray: _encode_array,
    SphereDecoder: _encode_decoder,
    ListSphereDecoder: _encode_decoder,
    PhyConfig: _encode_config,
    ComplexityCounters: _encode_counters,
    StreamDecision: _record(DECISION, _DECISION_FIELDS),
    FrameTrace: _record(TRACE, _TRACE_FIELDS),
    Resolution: _encode_resolution,
    FrameRequest: _sealable(REQUEST, _REQUEST_FIELDS),
    FrameDecodeResult: _sealable(HARD_RESULT, _HARD_RESULT_FIELDS),
    SoftFrameResult: _sealable(SOFT_RESULT, _SOFT_RESULT_FIELDS),
    Sealed: _encode_sealed,
}


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

def decode(data, *, sealed: bool = False) -> tuple:
    """One message body (a frame past its length prefix) back into its
    ``(verb, *fields)`` tuple.  ``sealed=True`` leaves requests and
    results as :class:`Sealed`, for a hop that forwards them.  Raises
    ``ValueError`` for anything the schema does not declare."""
    return _guarded(_decode_message, memoryview(data), sealed)


def _guarded(function, *args):
    """Run a decoder; a short read inside it is a ``ValueError`` to the
    caller, as every refusal is."""
    try:
        return function(*args)
    except (struct.error, IndexError) as error:
        raise ValueError(f"malformed message: {error!r}") from None


def _decode_message(view: memoryview, sealed: bool) -> tuple:
    index, count = _HEAD.unpack_from(view, 0)
    signature = _SIGNATURES.get((index, count))
    if signature is None:
        _refuse(f"no verb {index} with {count} fields")
    message = [_VERB_NAMES[index]]
    pos = _HEAD.size
    for tags in signature:
        tag = view[pos]
        if tags is not None and tag not in tags:
            _refuse(f"{message[0]!r} cannot carry tag {tag}")
        value, pos = _value(view, pos, 0, sealed)
        message.append(value)
    if pos != len(view):
        _refuse("message has trailing bytes")
    return tuple(message)


def _value(view, pos, depth, sealed):
    """Decode the tagged value at ``pos``: ``(value, next position)``."""
    tag = view[pos]
    if tag >= len(_VALUE_DECODERS):
        _refuse(f"unknown tag {tag}")
    return _VALUE_DECODERS[tag](view, pos + 1, depth, sealed)


def _typed(view, pos, tags, depth, sealed, what):
    """:func:`_value`, for a field that takes only ``tags``."""
    tag = view[pos]
    if tag not in tags:
        _refuse(f"{what} cannot be tag {tag}")
    return _VALUE_DECODERS[tag](view, pos + 1, depth, sealed)


def _decode_none(view, pos, depth, sealed):
    return None, pos


def _decode_false(view, pos, depth, sealed):
    return False, pos


def _decode_true(view, pos, depth, sealed):
    return True, pos


def _decode_int(view, pos, depth, sealed):
    return _I64.unpack_from(view, pos)[0], pos + 8


def _decode_float(view, pos, depth, sealed):
    return _F64.unpack_from(view, pos)[0], pos + 8


def _span(view, pos, size, cap, what):
    """Check that ``size`` bytes at ``pos`` are within ``cap`` and the
    message; returns the end."""
    if size > cap:
        _refuse(f"a {size}-byte {what} exceeds its {cap}-byte cap")
    end = pos + size
    if end > len(view):
        _refuse(f"{what} runs past the end of the message")
    return end


def _decode_str(view, pos, depth, sealed):
    (size,) = _U32.unpack_from(view, pos)
    pos += 4
    end = _span(view, pos, size, MAX_STR_BYTES, "string")
    return str(view[pos:end], "utf-8"), end


def _count(view, pos, depth):
    (count,) = _U32.unpack_from(view, pos)
    pos += 4
    if count > MAX_ITEMS:
        _refuse(f"{count} items exceed the {MAX_ITEMS}-item cap")
    if count > len(view) - pos:
        _refuse(f"{count} items cannot fit the message")
    if depth >= MAX_DEPTH:
        _refuse(f"nesting deeper than {MAX_DEPTH}")
    return count, pos


def _decode_list(view, pos, depth, sealed):
    count, pos = _count(view, pos, depth)
    items = []
    for _ in range(count):
        item, pos = _value(view, pos, depth + 1, sealed)
        items.append(item)
    return items, pos


def _decode_tuple(view, pos, depth, sealed):
    items, pos = _decode_list(view, pos, depth, sealed)
    return tuple(items), pos


def _decode_dict(view, pos, depth, sealed):
    count, pos = _count(view, pos, depth)
    items = {}
    for _ in range(count):
        key, pos = _typed(view, pos, _KEYS, depth + 1, sealed, "a dict key")
        items[key], pos = _value(view, pos, depth + 1, sealed)
    return items, pos


def _aligned(pos: int) -> int:
    return (pos + 7) & ~7


def _decode_array(view, pos, depth, sealed):
    code, ndim, nbytes = _ARRAY.unpack_from(view, pos)
    pos += _ARRAY.size
    if code >= len(DTYPES):
        _refuse(f"unknown dtype code {code}")
    if ndim > MAX_NDIM:
        _refuse(f"a rank-{ndim} array exceeds the rank cap {MAX_NDIM}")
    shape = _DIMS[ndim].unpack_from(view, pos)
    pos = _aligned(pos + _DIMS[ndim].size)
    dtype = DTYPES[code]
    count = math.prod(shape)
    if count * dtype.itemsize != nbytes:
        _refuse(f"shape {shape} of {dtype} disagrees with its "
                f"{nbytes}-byte buffer")
    end = _span(view, pos, nbytes, MAX_MESSAGE_BYTES, "array")
    return np.frombuffer(view, dtype, count, pos).reshape(shape), end


def _enumerator(index: int) -> str:
    if index >= len(ENUMERATORS):
        _refuse(f"unknown enumerator {index}")
    return ENUMERATORS[index]


def _flag(value: int) -> bool:
    if value > 1:
        _refuse(f"a flag cannot be {value}")
    return bool(value)


def _node_budget(value: int):
    return None if value == -1 else value


#: Distinct decoders and configs a receiver keeps built.
_BUILT = 64


@lru_cache(maxsize=_BUILT)
def _hard_decoder(order, enumerator, pruning, budget, radius, ordering):
    return SphereDecoder(qam(order), enumerator, pruning, radius, budget,
                         ordering)


@lru_cache(maxsize=_BUILT)
def _list_decoder(order, enumerator, pruning, budget, list_size, clamp):
    return ListSphereDecoder(qam(order), list_size, pruning, clamp,
                             enumerator, budget)


def _decode_hard(view, pos, depth, sealed):
    order, enumerator, pruning, budget, radius, ordering = \
        _HARD.unpack_from(view, pos)
    if ordering >= len(_COLUMN_ORDERINGS):
        _refuse(f"unknown column ordering {ordering}")
    return _hard_decoder(_order(order), _enumerator(enumerator),
                         _flag(pruning), _node_budget(budget), radius,
                         _COLUMN_ORDERINGS[ordering]), pos + _HARD.size


def _decode_list_decoder(view, pos, depth, sealed):
    order, enumerator, pruning, budget, list_size, clamp = \
        _LIST.unpack_from(view, pos)
    if list_size > MAX_LIST_SIZE:
        _refuse(f"list size {list_size} exceeds the cap {MAX_LIST_SIZE}")
    return _list_decoder(_order(order), _enumerator(enumerator),
                         _flag(pruning), _node_budget(budget), list_size,
                         clamp), pos + _LIST.size


@lru_cache(maxsize=_BUILT)
def _phy_config(order, payload_bits, code, ofdm):
    return PhyConfig(
        constellation=qam(order),
        code=None if code is None else ConvolutionalCode(*code),
        ofdm=OfdmParams(*ofdm), payload_bits=payload_bits)


def _decode_config(view, pos, depth, sealed):
    (order, payload_bits, fft_size, cp_length, sample_rate, num_data,
     num_pilots, constraint_length, num_generators) = \
        _PHY.unpack_from(view, pos)
    pos += _PHY.size
    if not 0 < payload_bits <= MAX_PAYLOAD_BITS:
        _refuse(f"payload_bits {payload_bits} is outside (0, "
                f"{MAX_PAYLOAD_BITS}]")
    if fft_size > MAX_FFT_SIZE or num_data + num_pilots > fft_size:
        _refuse(f"an OFDM numerology of {fft_size} bins ({num_data} data, "
                f"{num_pilots} pilots) is outside the cap {MAX_FFT_SIZE}")
    if (constraint_length > MAX_CONSTRAINT_LENGTH
            or num_generators > MAX_GENERATORS):
        _refuse(f"a K={constraint_length} code with {num_generators} "
                f"generators is outside the caps ({MAX_CONSTRAINT_LENGTH},"
                f" {MAX_GENERATORS})")
    if constraint_length == 0 and num_generators:
        _refuse("an uncoded config carries no generators")
    tail = struct.Struct(f"<{num_generators}I{num_data}i{num_pilots}i")
    values = tail.unpack_from(view, pos)
    generators = values[:num_generators]
    data = values[num_generators:num_generators + num_data]
    pilots = values[num_generators + num_data:]
    code = (constraint_length, generators) if constraint_length else None
    return (_phy_config(_order(order), payload_bits, code,
                        (fft_size, cp_length, sample_rate, data, pilots)),
            pos + tail.size)


def _decode_points(view, pos, depth, sealed):
    (order,) = _ORDER.unpack_from(view, pos)
    return qam(_order(order)).points, pos + _ORDER.size


def _decode_counters(view, pos, depth, sealed):
    return (ComplexityCounters(*_COUNTERS.unpack_from(view, pos)),
            pos + _COUNTERS.size)


def _decode_fields(view, pos, fields, depth, sealed, what):
    """A record's declared fields as a dict, each tag checked first."""
    if depth >= MAX_DEPTH:
        _refuse(f"nesting deeper than {MAX_DEPTH}")
    values = {}
    for name, tags, _ in fields:
        tag = view[pos]
        if tag not in tags:
            _refuse(f"{what}.{name} cannot be tag {tag}")
        values[name], pos = _VALUE_DECODERS[tag](view, pos + 1, depth + 1,
                                                 sealed)
    return values, pos


def _decode_trace(view, pos, depth, sealed):
    values, pos = _decode_fields(view, pos, _TRACE_FIELDS, depth, sealed,
                                 "FrameTrace")
    trace = FrameTrace(values["frame_id"], values["labels"])
    trace.events = values["events"]
    trace.dropped = values["dropped"]
    return trace, pos


def _decode_resolution(view, pos, depth, sealed):
    frame_id, resolved_as, degraded, missed = _RESOLVED.unpack_from(view,
                                                                    pos)
    if resolved_as >= len(_RESOLVED_AS):
        _refuse(f"unknown resolution {resolved_as}")
    payload = Resolution(frame_id=frame_id,
                         resolution=_RESOLVED_AS[resolved_as],
                         degraded=_flag(degraded),
                         missed_deadline=_flag(missed))
    pos += _RESOLVED.size
    for name, tags in _RESOLUTION_TAIL:
        payload[name], pos = _typed(view, pos, tags, depth + 1, sealed,
                                    "Resolution")
    return payload, pos


def _record_decoder(cls, fields):
    """Decoder of a record built from its fields (a sealable record's
    body, from its first field)."""
    def decode_record(view, pos, depth, sealed):
        values, pos = _decode_fields(view, pos, fields, depth, sealed,
                                     cls.__name__)
        return cls(**values), pos
    return decode_record


_RECORD_DECODERS = {
    REQUEST: _record_decoder(FrameRequest, _REQUEST_FIELDS),
    HARD_RESULT: _record_decoder(FrameDecodeResult, _HARD_RESULT_FIELDS),
    SOFT_RESULT: _record_decoder(SoftFrameResult, _SOFT_RESULT_FIELDS),
}


def _sealable_decoder(tag):
    body_decoder = _RECORD_DECODERS[tag]

    def decode_record(view, pos, depth, sealed):
        (size,) = _U32.unpack_from(view, pos)
        start = _aligned(pos + _U32.size)
        end = _span(view, start, size, MAX_MESSAGE_BYTES, "record")
        if sealed:
            return Sealed(tag, view[start:end]), end
        value, last = body_decoder(view[:end], start, depth, sealed)
        if last != end:
            _refuse("record body has trailing bytes")
        return value, end
    return decode_record


_VALUE_DECODERS = (
    _decode_none, _decode_false, _decode_true, _decode_int, _decode_float,
    _decode_str, _decode_list, _decode_tuple, _decode_dict, _decode_array,
    _decode_hard, _decode_list_decoder, _decode_config, _decode_points,
    _decode_counters,
    _record_decoder(StreamDecision, _DECISION_FIELDS), _decode_trace,
    _decode_resolution, *(_sealable_decoder(tag) for tag in (
        REQUEST, HARD_RESULT, SOFT_RESULT)))
