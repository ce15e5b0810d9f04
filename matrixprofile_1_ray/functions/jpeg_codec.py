"""Baseline JPEG (ITU-T T.81) codec in pure NumPy + stdlib — no external
image library.

Decoder: baseline sequential DCT (SOF0), 8-bit samples, 1 or 3
components, sampling factors 1-2 (4:4:4 / 4:2:2 / 4:2:0), multiple
DQT/DHT segments, restart markers, 0xFF00 byte unstuffing.  Entropy
decode is a Python loop per symbol but O(1) per symbol: one numpy
pre-pass unstuffs/segments the stream, then a 65536-entry 16-bit
lookahead LUT maps the bit window straight to (symbol, length) — ~11x
faster than a per-bit tree walk (591 -> 55 ms on a 128x128 noise
image).  Everything after entropy decode — dequantize, inverse zigzag,
IDCT, upsample, color convert — is vectorized across ALL of a
component's blocks at once.  For production clusters libjpeg-turbo
still wins by >10x; this codec removes the capability gap, not the
codec-library dependency.

Encoder (used to build deterministic test corpora): 4:4:4 or 4:2:0,
Annex K quantization tables scaled by IJG quality, Annex K Huffman
tables, optional restart interval.

The reference library (kavj/matrixprofile-1) has no JPEG analog; this
implements the builder brief's multimodal decode operator for the
dominant real-world image format, complementing functions/media_codec.py
(PPM/PGM/BMP/WAV/PNG).
"""

from __future__ import annotations

import struct

import numpy as np

# ---------------------------------------------------------------- tables

# ITU-T T.81 Annex K.1 — luminance / chrominance quantization (natural
# row-major order)
QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99], dtype=np.int64)
QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99], dtype=np.int64)

# Annex K.3 — standard Huffman tables as (bits[1..16], values)
DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
DC_LUMA_VALS = list(range(12))
DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
DC_CHROMA_VALS = list(range(12))
AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]
AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA]


def zigzag_order() -> np.ndarray:
    """Index i of the zigzag scan -> position in the row-major 8x8 block
    (T.81 figure 5), derived by walking the anti-diagonals."""
    out = np.empty(64, np.int64)
    k = 0
    for s in range(15):
        rng = range(min(s, 7), max(0, s - 7) - 1, -1)  # rows, up-right
        idx = [(r, s - r) for r in rng]
        if s % 2 == 1:
            idx.reverse()   # odd diagonals run down-left in scan order
        for r, c in idx:
            out[k] = r * 8 + c
            k += 1
    return out


ZIGZAG = zigzag_order()              # scan position -> natural index
UNZIGZAG = np.argsort(ZIGZAG)        # natural index -> scan position


def dct_matrix() -> np.ndarray:
    """Orthonormal 8-point DCT-II matrix A: forward = A B A^T,
    inverse = A^T B A."""
    x = np.arange(8)
    a = np.cos((2 * x[None, :] + 1) * x[:, None] * np.pi / 16) / 2
    a[0] /= np.sqrt(2)
    return a


_DCT = dct_matrix()


def quant_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """IJG quality scaling of the Annex K tables (values clipped 1..255)."""
    quality = min(100, max(1, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    def scaled(base):
        return np.clip((base * scale + 50) // 100, 1, 255).astype(np.int64)
    return scaled(QUANT_LUMA), scaled(QUANT_CHROMA)


def _build_huffman_codes(bits, vals) -> dict[int, tuple[int, int]]:
    """symbol -> (code, length) via canonical code assignment (T.81 C.2)."""
    out = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


class _HuffDecoder:
    """16-bit-lookahead Huffman decode table: one flat 65536-entry LUT
    maps the next 16 bits directly to (symbol, code length) — one index
    per symbol instead of a per-bit tree walk.  Entries not covered by
    any code carry length 0 (invalid stream)."""

    def __init__(self, bits, vals):
        codes = _build_huffman_codes(bits, vals)
        self.sym = np.zeros(1 << 16, np.int16)
        self.length = np.zeros(1 << 16, np.uint8)
        for symbol, (code, length) in codes.items():
            start = code << (16 - length)
            span = 1 << (16 - length)
            self.sym[start : start + span] = symbol
            self.length[start : start + span] = length


def _extend(value: int, size: int) -> int:
    """T.81 F.2.2.1 EXTEND: map the raw ``size``-bit magnitude to its
    signed coefficient."""
    if size == 0:
        return 0
    return value if value >= (1 << (size - 1)) else value - (1 << size) + 1


def _split_entropy_segments(data: bytes, pos: int):
    """Pre-pass over the entropy-coded data: remove 0xFF00 stuffing and
    split at RSTn markers -> [(clean_bytes, rst_index_or_None), ...].
    Walks only the 0xFF positions (numpy scan), not every byte."""
    arr = np.frombuffer(data, np.uint8, count=len(data) - pos, offset=pos)
    ffs = np.flatnonzero(arr == 0xFF)
    segments = []
    parts = []
    start = 0
    for f in ffs.tolist():
        if f < start:
            continue                       # consumed as part of a marker
        nxt = arr[f + 1] if f + 1 < len(arr) else 0xD9
        if nxt == 0x00:
            parts.append(arr[start : f + 1])   # keep the FF, drop the 00
            start = f + 2
        elif 0xD0 <= nxt <= 0xD7:
            parts.append(arr[start:f])
            segments.append((np.concatenate(parts).tobytes()
                             if parts else b"", int(nxt) - 0xD0))
            parts = []
            start = f + 2
        else:
            parts.append(arr[start:f])         # real marker: stream ends
            segments.append((np.concatenate(parts).tobytes()
                             if parts else b"", None))
            return segments
    parts.append(arr[start:])
    segments.append((np.concatenate(parts).tobytes() if parts else b"",
                     None))
    return segments


class _BitReader:
    """MSB-first cursor over one clean (unstuffed) entropy segment.
    ``peek16``/``skip``/``receive`` read through a 4-byte window around
    the bit position; reads past the end see 1-padding (the spec's pad
    bits), and ``check_bounds`` rejects streams that actually consumed
    past the data."""

    __slots__ = ("data", "nbits_total", "bitpos")

    def __init__(self, data: bytes):
        self.data = data + b"\xFF\xFF\xFF\xFF"   # pad window, spec 1-bits
        self.nbits_total = 8 * len(data)
        self.bitpos = 0

    def peek16(self) -> int:
        byte = self.bitpos >> 3
        chunk = int.from_bytes(self.data[byte : byte + 4], "big")
        return (chunk >> (16 - (self.bitpos & 7))) & 0xFFFF

    def receive(self, n: int) -> int:
        off = self.bitpos & 7
        byte = self.bitpos >> 3
        chunk = int.from_bytes(self.data[byte : byte + 4], "big")
        self.bitpos += n
        return (chunk >> (32 - n - off)) & ((1 << n) - 1)

    def check_bounds(self):
        # pad bits (<8) at the tail are legal; consuming a whole extra
        # byte means the stream was truncated or corrupt
        if self.bitpos > self.nbits_total + 7:
            raise ValueError("JPEG: truncated entropy stream")


# ---------------------------------------------------------------- decode

def _parse_dht(data: bytes, tables: dict):
    i = 0
    while i < len(data):
        tc_th = data[i]
        tc, th = tc_th >> 4, tc_th & 0x0F
        bits = list(data[i + 1 : i + 17])
        n = sum(bits)
        vals = list(data[i + 17 : i + 17 + n])
        if len(vals) != n:
            raise ValueError("JPEG: truncated DHT segment")
        tables[(tc, th)] = _HuffDecoder(bits, vals)
        i += 17 + n


def _parse_dqt(data: bytes, tables: dict):
    i = 0
    while i < len(data):
        pq_tq = data[i]
        pq, tq = pq_tq >> 4, pq_tq & 0x0F
        if pq != 0:
            raise ValueError("JPEG: 16-bit quant tables unsupported "
                             "(baseline is 8-bit)")
        q = np.frombuffer(data[i + 1 : i + 65], np.uint8).astype(np.int64)
        if q.size != 64:
            raise ValueError("JPEG: truncated DQT segment")
        tables[tq] = q          # in zigzag scan order, as stored
        i += 65


def decode_jpeg(payload: bytes) -> np.ndarray:
    """Baseline JPEG -> uint8 image: (h, w) for grayscale, (h, w, 3) RGB
    for YCbCr.  Supports sampling factors 1-2 and restart intervals."""
    if payload[:2] != b"\xFF\xD8":
        raise ValueError("not a JPEG payload (missing SOI)")
    pos = 2
    n = len(payload)
    quant: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _HuffDecoder] = {}
    frame = None
    restart_interval = 0
    while pos + 4 <= n:
        if payload[pos] != 0xFF:
            raise ValueError("JPEG: expected marker")
        marker = payload[pos + 1]
        if marker == 0xFF:      # fill byte before a marker (T.81 B.1.1.2)
            pos += 1
            continue
        if marker == 0xD8 or 0xD0 <= marker <= 0xD7:   # SOI / bare RST
            pos += 2
            continue
        (seglen,) = struct.unpack_from(">H", payload, pos + 2)
        data = payload[pos + 4 : pos + 2 + seglen]
        if marker == 0xC4:
            _parse_dht(data, huff)
        elif marker == 0xDB:
            _parse_dqt(data, quant)
        elif marker == 0xDD:
            (restart_interval,) = struct.unpack_from(">H", data, 0)
        elif marker == 0xC0 or marker == 0xC1:
            prec, h, w, ncomp = struct.unpack_from(">BHHB", data, 0)
            if prec != 8:
                raise ValueError("JPEG: only 8-bit precision supported")
            comps = []
            for c in range(ncomp):
                cid, hv, tq = struct.unpack_from(">BBB", data, 6 + 3 * c)
                comps.append({"id": cid, "h": hv >> 4, "v": hv & 0x0F,
                              "tq": tq})
            frame = {"h": h, "w": w, "comps": comps}
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB,
                        0xCD, 0xCE, 0xCF):
            raise ValueError("JPEG: only baseline sequential (SOF0/1) "
                             "is supported")
        elif marker == 0xDA:
            if frame is None:
                raise ValueError("JPEG: SOS before SOF")
            ns = data[0]
            scan = []
            for c in range(ns):
                cs, tables = data[1 + 2 * c], data[2 + 2 * c]
                scan.append({"id": cs, "dc": tables >> 4,
                             "ac": tables & 0x0F})
            return _decode_scan(payload, pos + 2 + seglen, frame, scan,
                                quant, huff, restart_interval)
        elif marker == 0xD9:
            break
        pos += 2 + seglen
    raise ValueError("JPEG: no scan data found")


def _decode_scan(data: bytes, pos: int, frame, scan, quant, huff,
                 restart_interval: int) -> np.ndarray:
    comps = frame["comps"]
    if len(scan) != len(comps):
        raise ValueError("JPEG: progressive/multi-scan streams "
                         "unsupported (baseline only)")
    if len(scan) == 1:
        # a one-component scan is non-interleaved (T.81 A.2.2): each MCU
        # is one data unit over the component's own ceil(w/8) x ceil(h/8)
        # block grid, whatever sampling factors the frame declares
        comps = [dict(comps[0], h=1, v=1)]
    by_id = {c["id"]: c for c in comps}
    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    if not all(1 <= c["h"] <= 2 and 1 <= c["v"] <= 2 for c in comps):
        raise ValueError("JPEG: sampling factors beyond 2 unsupported")
    w, h = frame["w"], frame["h"]
    if w == 0 or h == 0:
        raise ValueError("JPEG: zero-size frame")
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    order = []                      # (comp, blocks-array) per scan member
    for sc in scan:
        comp = by_id[sc["id"]]
        nb = mcux * comp["h"] * mcuy * comp["v"]
        order.append({
            "comp": comp,
            "dc": huff.get((0, sc["dc"])),
            "ac": huff.get((1, sc["ac"])),
            "coef": np.zeros((nb, 64), np.int64),
            "bw": mcux * comp["h"],     # blocks per row
            "pred": 0,
        })
        if order[-1]["dc"] is None or order[-1]["ac"] is None:
            raise ValueError("JPEG: scan references undefined Huffman "
                             "table")
        order[-1]["dc_sym"] = order[-1]["dc"].sym
        order[-1]["dc_len"] = order[-1]["dc"].length
        order[-1]["ac_sym"] = order[-1]["ac"].sym
        order[-1]["ac_len"] = order[-1]["ac"].length
    segments = _split_entropy_segments(data, pos)
    seg_i = 0
    reader = _BitReader(segments[0][0])
    mcu_idx = 0
    rst_idx = 0
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_idx and \
                    mcu_idx % restart_interval == 0:
                reader.check_bounds()
                if (segments[seg_i][1] is None
                        or segments[seg_i][1] != (rst_idx & 7)):
                    raise ValueError("JPEG: restart marker missing or "
                                     "out of sequence")
                seg_i += 1
                if seg_i >= len(segments):
                    raise ValueError("JPEG: truncated entropy stream")
                reader = _BitReader(segments[seg_i][0])
                rst_idx += 1
                for member in order:
                    member["pred"] = 0
            for member in order:
                comp = member["comp"]
                for by in range(comp["v"]):
                    for bx in range(comp["h"]):
                        row = my * comp["v"] + by
                        col = mx * comp["h"] + bx
                        blk = member["coef"][row * member["bw"] + col]
                        _decode_block(reader, member, blk)
            mcu_idx += 1
    reader.check_bounds()
    return _reconstruct(frame, order, quant, hmax, vmax, mcux, mcuy)


def _decode_block(reader: _BitReader, member, blk: np.ndarray):
    dc_sym, dc_len = member["dc_sym"], member["dc_len"]
    ac_sym, ac_len = member["ac_sym"], member["ac_len"]
    look = reader.peek16()
    length = int(dc_len[look])
    if length == 0:
        raise ValueError("JPEG: invalid Huffman code in entropy stream")
    reader.bitpos += length
    t = int(dc_sym[look])
    if t > 11:
        raise ValueError("JPEG: invalid DC category")
    diff = _extend(reader.receive(t), t) if t else 0
    member["pred"] += diff
    blk[0] = member["pred"]
    k = 1
    while k < 64:
        look = reader.peek16()
        length = int(ac_len[look])
        if length == 0:
            raise ValueError("JPEG: invalid Huffman code in entropy "
                             "stream")
        reader.bitpos += length
        rs = int(ac_sym[look])
        r, s = rs >> 4, rs & 0x0F
        if s == 0:
            if r == 15:                 # ZRL: 16 zeros
                k += 16
                continue
            break                       # EOB
        k += r
        if k > 63:
            raise ValueError("JPEG: AC run past end of block")
        blk[k] = _extend(reader.receive(s), s)
        k += 1


def _reconstruct(frame, order, quant, hmax, vmax, mcux, mcuy) -> np.ndarray:
    w, h = frame["w"], frame["h"]
    planes = []
    for member in order:
        comp = member["comp"]
        q = quant.get(comp["tq"])
        if q is None:
            raise ValueError("JPEG: component references undefined "
                             "quant table")
        # dequantize in scan order, scatter to natural order, IDCT all
        # blocks at once
        coef = member["coef"] * q[None, :]
        nat = np.zeros_like(coef)
        nat[:, ZIGZAG] = coef
        blocks = nat.reshape(-1, 8, 8).astype(np.float64)
        spatial = np.einsum("ux,nuv,vy->nxy", _DCT, blocks, _DCT,
                            optimize=True)
        px = np.clip(np.round(spatial) + 128, 0, 255).astype(np.uint8)
        bw = member["bw"]
        bh = mcuy * comp["v"]
        plane = (px.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3)
                 .reshape(bh * 8, bw * 8))
        # upsample to full resolution (nearest — the common fast path)
        ry, rx = vmax // comp["v"], hmax // comp["h"]
        if ry > 1:
            plane = np.repeat(plane, ry, axis=0)
        if rx > 1:
            plane = np.repeat(plane, rx, axis=1)
        planes.append(plane[:h, :w])
    if len(planes) == 1:
        return planes[0]
    if len(planes) != 3:
        raise ValueError(f"JPEG: unsupported component count "
                         f"{len(planes)}")
    ycc = np.stack(planes, axis=-1).astype(np.float64)
    return _ycbcr_to_rgb(ycc)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y, cb, cr = ycc[..., 0], ycc[..., 1] - 128.0, ycc[..., 2] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.round(np.stack([r, g, b], axis=-1)), 0,
                   255).astype(np.uint8)


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    r = img[..., 0].astype(np.float64)
    g = img[..., 1].astype(np.float64)
    b = img[..., 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.clip(np.round(np.stack([y, cb, cr], axis=-1)), 0,
                   255).astype(np.uint8)


# ---------------------------------------------------------------- encode

class _BitWriter:
    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            self.nbits -= 8
            b = (self.acc >> self.nbits) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)   # byte stuffing

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)   # pad with 1s per spec


def _encode_plane_blocks(plane: np.ndarray, qtab: np.ndarray) -> np.ndarray:
    """Pad a component plane to 8-multiples (edge replication), forward
    DCT every block, quantize -> (n_blocks_y, n_blocks_x, 64) in NATURAL
    order."""
    h, w = plane.shape
    ph, pw = -(-h // 8) * 8, -(-w // 8) * 8
    padded = np.pad(plane.astype(np.float64) - 128.0,
                    ((0, ph - h), (0, pw - w)), mode="edge")
    blocks = (padded.reshape(ph // 8, 8, pw // 8, 8)
              .transpose(0, 2, 1, 3))
    freq = np.einsum("ux,nmxy,vy->nmuv", _DCT, blocks, _DCT,
                     optimize=True)
    # qtab is in NATURAL row-major order here (quant_tables output); the
    # zigzag reorder happens only where the DQT segment is serialized
    quantized = np.round(freq.reshape(ph // 8, pw // 8, 64)
                         / qtab[None, None, :]).astype(np.int64)
    return quantized


def _block_structure(zz_flat: np.ndarray):
    """(N, 64) quantized scan-order blocks -> per-block nonzero-AC
    structure, computed in ONE numpy pass over the whole component:
    [(positions list, values list), ...].  The bit emitter then loops
    only over actual nonzeros — an all-zero (EOB-only) block costs no
    per-coefficient Python at all."""
    n = zz_flat.shape[0]
    rows, cols = np.nonzero(zz_flat[:, 1:])
    vals = zz_flat[:, 1:][rows, cols]
    counts = np.bincount(rows, minlength=n)
    bounds = np.cumsum(counts)[:-1]
    pos_split = np.split(cols + 1, bounds)
    val_split = np.split(vals, bounds)
    return [(p.tolist(), v.tolist())
            for p, v in zip(pos_split, val_split)]


def _write_block(writer: _BitWriter, dc_val: int, nonzeros, pred: int,
                 dc_codes, ac_codes) -> int:
    """Emit one block: DC diff + run-length-coded nonzero ACs.  The
    Huffman code and the magnitude bits are fused into ONE writer call
    per token (code << size | mag, total <= 27 bits)."""
    diff = dc_val - pred
    size = abs(diff).bit_length()
    code, length = dc_codes[size]
    if size:
        mag = diff if diff >= 0 else diff + (1 << size) - 1
        writer.write((code << size) | mag, length + size)
    else:
        writer.write(code, length)
    prev = 0
    for k, v in zip(*nonzeros):
        run = k - prev - 1
        while run > 15:
            zc, zl = ac_codes[0xF0]
            writer.write(zc, zl)
            run -= 16
        size = abs(v).bit_length()
        code, length = ac_codes[(run << 4) | size]
        mag = v if v >= 0 else v + (1 << size) - 1
        writer.write((code << size) | mag, length + size)
        prev = k
    if prev != 63:
        code, length = ac_codes[0x00]
        writer.write(code, length)
    return dc_val


def _dht_segment(tc: int, th: int, bits, vals) -> bytes:
    body = bytes([(tc << 4) | th]) + bytes(bits) + bytes(vals)
    return b"\xFF\xC4" + struct.pack(">H", len(body) + 2) + body


def encode_jpeg(img: np.ndarray, quality: int = 90,
                subsample: bool = False,
                restart_interval: int = 0) -> bytes:
    """uint8 grayscale (h, w) or RGB (h, w, 3) -> baseline JPEG bytes.
    ``subsample=True`` encodes chroma 4:2:0 (exercises the decoder's
    upsampling path); ``restart_interval`` > 0 emits DRI + RSTn markers."""
    img = np.ascontiguousarray(img, dtype=np.uint8)
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError(f"unsupported image shape {img.shape}")
    h, w = img.shape[:2]
    if h == 0 or w == 0:
        raise ValueError("cannot encode zero-size image")
    qy, qc = quant_tables(quality)

    dc_y = _build_huffman_codes(DC_LUMA_BITS, DC_LUMA_VALS)
    ac_y = _build_huffman_codes(AC_LUMA_BITS, AC_LUMA_VALS)
    dc_c = _build_huffman_codes(DC_CHROMA_BITS, DC_CHROMA_VALS)
    ac_c = _build_huffman_codes(AC_CHROMA_BITS, AC_CHROMA_VALS)

    if gray:
        comps = [{"plane": img, "hv": (1, 1), "tq": 0,
                  "dc": dc_y, "ac": ac_y}]
    else:
        ycc = _rgb_to_ycbcr(img)
        yp, cbp, crp = ycc[..., 0], ycc[..., 1], ycc[..., 2]
        if subsample:
            eh, ew = -(-h // 2) * 2, -(-w // 2) * 2
            def down(p):
                p = np.pad(p.astype(np.float64),
                           ((0, eh - h), (0, ew - w)), mode="edge")
                q = (p.reshape(eh // 2, 2, ew // 2, 2)
                     .mean(axis=(1, 3)))
                return np.clip(np.round(q), 0, 255).astype(np.uint8)
            cbp, crp = down(cbp), down(crp)
            y_hv, c_hv = (2, 2), (1, 1)
        else:
            y_hv, c_hv = (1, 1), (1, 1)
        comps = [{"plane": yp, "hv": y_hv, "tq": 0, "dc": dc_y,
                  "ac": ac_y},
                 {"plane": cbp, "hv": c_hv, "tq": 1, "dc": dc_c,
                  "ac": ac_c},
                 {"plane": crp, "hv": c_hv, "tq": 1, "dc": dc_c,
                  "ac": ac_c}]

    hmax = max(c["hv"][0] for c in comps)
    vmax = max(c["hv"][1] for c in comps)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))
    for c in comps:
        ch, cv = c["hv"]
        # pad each plane so its block grid covers the full MCU grid
        need_h = mcuy * cv * 8
        need_w = mcux * ch * 8
        p = c["plane"]
        p = np.pad(p, ((0, need_h - p.shape[0]), (0, need_w - p.shape[1])),
                   mode="edge")
        blocks = _encode_plane_blocks(p, qy if c["tq"] == 0 else qc)
        zz = blocks[:, :, ZIGZAG]           # natural -> scan order
        flat_zz = zz.reshape(-1, 64)
        c["nbx"] = zz.shape[1]
        c["nz"] = _block_structure(flat_zz)
        c["dcv"] = flat_zz[:, 0].tolist()
        c["pred"] = 0

    writer = _BitWriter()
    mcu_idx = 0
    rst_idx = 0
    body = bytearray()
    for my in range(mcuy):
        for mx in range(mcux):
            if restart_interval and mcu_idx and \
                    mcu_idx % restart_interval == 0:
                writer.flush()
                body += writer.out
                writer = _BitWriter()
                body += bytes([0xFF, 0xD0 + (rst_idx & 7)])
                rst_idx += 1
                for c in comps:
                    c["pred"] = 0
            for c in comps:
                ch, cv = c["hv"]
                for by in range(cv):
                    for bx in range(ch):
                        idx = (my * cv + by) * c["nbx"] + (mx * ch + bx)
                        c["pred"] = _write_block(writer, c["dcv"][idx],
                                                 c["nz"][idx], c["pred"],
                                                 c["dc"], c["ac"])
            mcu_idx += 1
    writer.flush()
    body += writer.out

    out = bytearray(b"\xFF\xD8")
    out += (b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00"
            + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]))
    def dqt(tq, tab):
        # DQT stores the table in ZIGZAG scan order (T.81 B.2.4.1)
        return (b"\xFF\xDB" + struct.pack(">H", 67) + bytes([tq])
                + bytes(int(v) for v in tab[ZIGZAG]))
    out += dqt(0, qy)
    if not gray:
        out += dqt(1, qc)
    ncomp = 1 if gray else 3
    sof = struct.pack(">BHHB", 8, h, w, ncomp)
    for i, c in enumerate(comps):
        sof += bytes([i + 1, (c["hv"][0] << 4) | c["hv"][1], c["tq"]])
    out += b"\xFF\xC0" + struct.pack(">H", len(sof) + 2) + sof
    out += _dht_segment(0, 0, DC_LUMA_BITS, DC_LUMA_VALS)
    out += _dht_segment(1, 0, AC_LUMA_BITS, AC_LUMA_VALS)
    if not gray:
        out += _dht_segment(0, 1, DC_CHROMA_BITS, DC_CHROMA_VALS)
        out += _dht_segment(1, 1, AC_CHROMA_BITS, AC_CHROMA_VALS)
    if restart_interval:
        out += b"\xFF\xDD" + struct.pack(">HH", 4, restart_interval)
    sos = bytes([ncomp])
    for i, _c in enumerate(comps):
        sos += bytes([i + 1, 0x00 if gray or i == 0 else 0x11])
    sos += bytes([0, 63, 0])
    out += b"\xFF\xDA" + struct.pack(">H", len(sos) + 2) + sos
    out += body
    out += b"\xFF\xD9"
    return bytes(out)
