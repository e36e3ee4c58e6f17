"""Baseline JPEG (ITU-T T.81) codec, pure stdlib + numpy — the last
multimodal gate (VERDICT r4 item 6): sequential DCT, huffman entropy
coding with the Annex K typical tables, 4:4:4 and 4:2:0 chroma,
grayscale and YCbCr color.  Progressive (SOF2), arithmetic coding,
12-bit precision, and exotic sampling factors raise
``NotImplementedError`` — the same honest capability gating as the
PNG/GIF codecs (multimodal.py).

Determinism contract (what makes jpeg_roundtrip SQL-oracle-able):
every rounding step is ROUND-HALF-AWAY-FROM-ZERO (``_rha``), applied
(1) at quantization, (2) once per pixel after the IDCT + level shift,
and (3) once per channel in the integer YCbCr↔RGB conversions — so for
a BLOCKWISE-CONSTANT image the decoded raster is an exact integer
function of the input values and the quant table (the DC-only path:
``rec = clip(q_dc * rha(8·(v−128)/q_dc) / 8 + 128)``), while arbitrary
images still get the full float DCT/IDCT with its ±2 roundtrip bound
(pinned in tests).

Reference for parity: servais1983/deepwebharvester has no JPEG
pipeline; this extends the engine's multimodal family
(functions/multimodal.py) beyond the reference per the round brief.
"""
from __future__ import annotations

import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

# ── zigzag order (T.81 Figure A.6) ──────────────────────────────────────────

ZIGZAG = np.array([
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
], dtype=np.int64)
_UNZIGZAG = np.argsort(ZIGZAG)

# ── Annex K typical quantization tables (K.1 / K.2), natural order ──────────

QUANT_LUMA = np.array([
    16, 11, 10, 16, 24, 40, 51, 61,
    12, 12, 14, 19, 26, 58, 60, 55,
    14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62,
    18, 22, 37, 56, 68, 109, 103, 77,
    24, 35, 55, 64, 81, 104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101,
    72, 92, 95, 98, 112, 100, 103, 99,
], dtype=np.int64).reshape(8, 8)

QUANT_CHROMA = np.array([
    17, 18, 24, 47, 99, 99, 99, 99,
    18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99,
], dtype=np.int64).reshape(8, 8)

# ── Annex K typical huffman tables (K.3) ────────────────────────────────────
# (bits[1..16], values) per table — the baseline-interchange defaults.

_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))

_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41,
    0x06, 0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91,
    0xA1, 0x08, 0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24,
    0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A,
    0x25, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53,
    0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65, 0x66,
    0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A, 0x92, 0x93,
    0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6, 0xB7,
    0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12,
    0x41, 0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14,
    0x42, 0x91, 0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15,
    0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17,
    0x18, 0x19, 0x1A, 0x26, 0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37,
    0x38, 0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49, 0x4A,
    0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59, 0x5A, 0x63, 0x64, 0x65,
    0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89, 0x8A,
    0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5,
    0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9,
    0xDA, 0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2,
    0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]


def _rha(x: np.ndarray) -> np.ndarray:
    """Round half AWAY from zero (the codec's single rounding rule —
    SQL twin: ``sign(x) * floor(abs(x) + 0.5)``)."""
    return (np.sign(x) * np.floor(np.abs(x) + 0.5)).astype(np.int64)


# DCT-II orthonormal basis: T[u, x] = C(u)/2 * cos((2x+1)uπ/16);
# forward block transform F = T @ f @ T.T, inverse f = T.T @ F @ T.
_T = np.zeros((8, 8))
for _u in range(8):
    _c = (1.0 / np.sqrt(2.0)) if _u == 0 else 1.0
    for _x in range(8):
        _T[_u, _x] = 0.5 * _c * np.cos((2 * _x + 1) * _u * np.pi / 16.0)


def _huff_encoder_table(bits: List[int], vals: List[int]) -> Dict[int, Tuple[int, int]]:
    """symbol -> (code, length) per T.81 Annex C code assignment."""
    out: Dict[int, Tuple[int, int]] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return out


def _huff_decoder_table(bits: List[int], vals: List[int]) -> Dict[Tuple[int, int], int]:
    """(length, code) -> symbol."""
    out: Dict[Tuple[int, int], int] = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            out[(length, code)] = vals[k]
            code += 1
            k += 1
        code <<= 1
    return out


class _BitWriter:
    def __init__(self) -> None:
        self._acc = 0
        self._n = 0
        self.out = bytearray()

    def write(self, code: int, length: int) -> None:
        self._acc = (self._acc << length) | (code & ((1 << length) - 1))
        self._n += length
        while self._n >= 8:
            self._n -= 8
            b = (self._acc >> self._n) & 0xFF
            self.out.append(b)
            if b == 0xFF:          # byte stuffing (B.1.1.5)
                self.out.append(0x00)

    def flush(self) -> None:
        if self._n:
            pad = 8 - self._n
            self.write((1 << pad) - 1, pad)  # pad with 1-bits


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self._d = data
        self._i = 0
        self._acc = 0
        self._n = 0

    def read_bit(self) -> int:
        if self._n == 0:
            if self._i >= len(self._d):
                raise ValueError("jpeg: entropy stream truncated")
            b = self._d[self._i]
            self._i += 1
            if b == 0xFF:
                # destuffing: FF 00 -> FF; FF D9 (EOI) must not be
                # consumed as data — any other marker is an error here
                if self._i < len(self._d) and self._d[self._i] == 0x00:
                    self._i += 1
                else:
                    raise ValueError("jpeg: marker inside entropy data")
            self._acc = b
            self._n = 8
        self._n -= 1
        return (self._acc >> self._n) & 1

    def receive(self, n: int) -> int:
        v = 0
        for _ in range(n):
            v = (v << 1) | self.read_bit()
        return v


def _extend(v: int, t: int) -> int:
    """T.81 F.2.2.1 EXTEND: map magnitude bits back to a signed value."""
    if t == 0:
        return 0
    return v if v >= (1 << (t - 1)) else v - (1 << t) + 1


def _category(v: int) -> int:
    return int(v).bit_length() if v > 0 else int(-v).bit_length()


def _rgb_to_ycbcr(img: np.ndarray) -> np.ndarray:
    r = img[..., 0].astype(np.float64)
    g = img[..., 1].astype(np.float64)
    b = img[..., 2].astype(np.float64)
    y = _rha(0.299 * r + 0.587 * g + 0.114 * b)
    cb = _rha(128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b)
    cr = _rha(128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b)
    return np.clip(np.stack([y, cb, cr], axis=-1), 0, 255).astype(np.int64)


def _ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    y = ycc[..., 0].astype(np.float64)
    cb = ycc[..., 1].astype(np.float64) - 128.0
    cr = ycc[..., 2].astype(np.float64) - 128.0
    r = _rha(y + 1.402 * cr)
    g = _rha(y - 0.344136 * cb - 0.714136 * cr)
    b = _rha(y + 1.772 * cb)
    return np.clip(np.stack([r, g, b], axis=-1), 0, 255).astype(np.uint8)


def _pad_to_blocks(plane: np.ndarray, bh: int = 8, bw: int = 8) -> np.ndarray:
    h, w = plane.shape
    ph = (bh - h % bh) % bh
    pw = (bw - w % bw) % bw
    return np.pad(plane, ((0, ph), (0, pw)), mode="edge")


def _blocks_of(plane: np.ndarray) -> np.ndarray:
    """(n_by, n_bx, 8, 8) view-copy of an 8-multiple plane."""
    h, w = plane.shape
    return (plane.reshape(h // 8, 8, w // 8, 8)
            .transpose(0, 2, 1, 3))


def _encode_component_blocks(blocks: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n, 64) quantized zigzag coefficients for (n, 8, 8) pixel blocks
    — forward DCT batched as one einsum, RHA quantization."""
    f = blocks.astype(np.float64) - 128.0
    coef = np.einsum("ux,nxy,vy->nuv", _T, f, _T)
    qz = _rha(coef / q.astype(np.float64))
    return qz.reshape(-1, 64)[:, ZIGZAG]


def _decode_component_blocks(zz: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(n, 8, 8) integer pixel blocks from (n, 64) zigzag coefficients."""
    coef = np.zeros((len(zz), 64), dtype=np.float64)
    coef[:, ZIGZAG] = zz
    coef = coef.reshape(-1, 8, 8) * q.astype(np.float64)
    pix = np.einsum("ux,nuv,vy->nxy", _T, coef, _T)
    return np.clip(_rha(pix + 128.0), 0, 255)


def _write_entropy(comps_zz: List[np.ndarray], order: List[int],
                   mcu_layout: List[int], dc_tabs, ac_tabs) -> bytes:
    """Interleaved scan: ``order`` gives, per MCU, the sequence of
    (component, block-index-offset) data units; ``comps_zz[c]`` holds
    component c's blocks in MCU emission order already."""
    w = _BitWriter()
    pred = [0] * len(comps_zz)
    idx = [0] * len(comps_zz)
    n_mcu = mcu_layout[0]
    for _ in range(n_mcu):
        for c in order:
            for _du in range(mcu_layout[1 + c]):
                blk = comps_zz[c][idx[c]]
                idx[c] += 1
                dc_tab, ac_tab = dc_tabs[c], ac_tabs[c]
                diff = int(blk[0]) - pred[c]
                pred[c] = int(blk[0])
                t = _category(diff)
                code, ln = dc_tab[t]
                w.write(code, ln)
                if t:
                    w.write(diff if diff >= 0 else diff + (1 << t) - 1, t)
                run = 0
                last_nz = 0
                nz = np.flatnonzero(blk[1:])
                last_nz = (nz[-1] + 1) if len(nz) else 0
                for k in range(1, last_nz + 1):
                    v = int(blk[k])
                    if v == 0:
                        run += 1
                        continue
                    while run > 15:
                        code, ln = ac_tab[0xF0]  # ZRL
                        w.write(code, ln)
                        run -= 16
                    t = _category(v)
                    code, ln = ac_tab[(run << 4) | t]
                    w.write(code, ln)
                    w.write(v if v >= 0 else v + (1 << t) - 1, t)
                    run = 0
                if last_nz < 63:
                    code, ln = ac_tab[0x00]  # EOB
                    w.write(code, ln)
    w.flush()
    return bytes(w.out)


def _dht_segment(tclass: int, tid: int, bits: List[int], vals: List[int]) -> bytes:
    payload = bytes([(tclass << 4) | tid]) + bytes(bits) + bytes(vals)
    return b"\xff\xc4" + struct.pack(">H", 2 + len(payload)) + payload


def _dqt_segment(tid: int, q: np.ndarray) -> bytes:
    payload = bytes([tid]) + bytes(int(x) for x in q.reshape(64)[ZIGZAG])
    return b"\xff\xdb" + struct.pack(">H", 2 + len(payload)) + payload


def jpeg_encode(img: np.ndarray, subsampling: str = "444",
                quant_luma: Optional[np.ndarray] = None,
                quant_chroma: Optional[np.ndarray] = None) -> bytes:
    """Baseline sequential JFIF bytes for a uint8 raster — (H, W)
    grayscale or (H, W, 3) RGB; ``subsampling`` ∈ {"444", "420"}
    (color only).  Annex K huffman tables; quant tables default to the
    Annex K typicals and may be overridden (the jpeg_roundtrip query
    passes uniform tables so the decode arithmetic is SQL-exact)."""
    img = np.asarray(img)
    if img.dtype != np.uint8:
        raise ValueError("jpeg_encode: uint8 raster required")
    gray = img.ndim == 2
    if not gray and (img.ndim != 3 or img.shape[2] != 3):
        raise ValueError("jpeg_encode: (H,W) or (H,W,3) required")
    if subsampling not in ("444", "420"):
        raise NotImplementedError(f"jpeg subsampling {subsampling!r}")
    h, w = img.shape[:2]
    if not h or not w:
        raise ValueError("jpeg_encode: empty image")
    ql = (QUANT_LUMA if quant_luma is None else
          np.asarray(quant_luma, np.int64).reshape(8, 8))
    qc = (QUANT_CHROMA if quant_chroma is None else
          np.asarray(quant_chroma, np.int64).reshape(8, 8))

    if gray:
        planes = [img.astype(np.int64)]
        samp = [(1, 1)]
        qids = [0]
    else:
        ycc = _rgb_to_ycbcr(img)
        y, cb, cr = ycc[..., 0], ycc[..., 1], ycc[..., 2]
        if subsampling == "420":
            def down(p):
                pp = _pad_to_blocks(p, 2, 2).astype(np.int64)
                s = (pp[0::2, 0::2] + pp[0::2, 1::2]
                     + pp[1::2, 0::2] + pp[1::2, 1::2])
                return (s + 2) // 4
            planes = [y, down(cb), down(cr)]
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            planes = [y, cb, cr]
            samp = [(1, 1), (1, 1), (1, 1)]
        qids = [0, 1, 1]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    comps_zz: List[np.ndarray] = []
    for ci, (plane, (sh, sv)) in enumerate(zip(planes, samp)):
        q = ql if qids[ci] == 0 else qc
        # pad the plane so it covers its MCU grid exactly
        need_h = mcuy * sv * 8
        need_w = mcux * sh * 8
        p = np.pad(plane, ((0, need_h - plane.shape[0]),
                           (0, need_w - plane.shape[1])), mode="edge")
        blocks = _blocks_of(p)                      # (by, bx, 8, 8)
        zz = _encode_component_blocks(
            blocks.reshape(-1, 8, 8), q).reshape(
            blocks.shape[0], blocks.shape[1], 64)
        # MCU emission order: for each MCU, sv×sh data units row-major
        ordered = []
        for my in range(mcuy):
            for mx in range(mcux):
                for dy in range(sv):
                    for dx in range(sh):
                        ordered.append(zz[my * sv + dy, mx * sh + dx])
        comps_zz.append(np.array(ordered, dtype=np.int64))

    n_comp = len(planes)
    dc_enc = [_huff_encoder_table(_DC_LUMA_BITS, _DC_LUMA_VALS)]
    ac_enc = [_huff_encoder_table(_AC_LUMA_BITS, _AC_LUMA_VALS)]
    if n_comp == 3:
        dc_enc += [_huff_encoder_table(_DC_CHROMA_BITS, _DC_CHROMA_VALS)] * 2
        ac_enc += [_huff_encoder_table(_AC_CHROMA_BITS, _AC_CHROMA_VALS)] * 2

    mcu_layout = [mcux * mcuy] + [s[0] * s[1] for s in samp]
    scan = _write_entropy(comps_zz, list(range(n_comp)), mcu_layout,
                          dc_enc, ac_enc)

    out = bytearray()
    out += b"\xff\xd8"                                      # SOI
    out += (b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00"
            + bytes([1, 1, 0]) + struct.pack(">HH", 1, 1) + bytes([0, 0]))
    out += _dqt_segment(0, ql)
    if n_comp == 3:
        out += _dqt_segment(1, qc)
    sof = bytes([8]) + struct.pack(">HH", h, w) + bytes([n_comp])
    for ci in range(n_comp):
        sof += bytes([ci + 1, (samp[ci][0] << 4) | samp[ci][1], qids[ci]])
    out += b"\xff\xc0" + struct.pack(">H", 2 + len(sof)) + sof
    out += _dht_segment(0, 0, _DC_LUMA_BITS, _DC_LUMA_VALS)
    out += _dht_segment(1, 0, _AC_LUMA_BITS, _AC_LUMA_VALS)
    if n_comp == 3:
        out += _dht_segment(0, 1, _DC_CHROMA_BITS, _DC_CHROMA_VALS)
        out += _dht_segment(1, 1, _AC_CHROMA_BITS, _AC_CHROMA_VALS)
    sos = bytes([n_comp])
    for ci in range(n_comp):
        sos += bytes([ci + 1, (0 << 4) | 0 if ci == 0 else (1 << 4) | 1])
    sos += bytes([0, 63, 0])
    out += b"\xff\xda" + struct.pack(">H", 2 + len(sos)) + sos
    out += scan
    out += b"\xff\xd9"                                      # EOI
    return bytes(out)


_UNDEFINED_TABLE = "jpeg: undefined quant/huffman table id"


def jpeg_decode(blob: bytes) -> np.ndarray:
    """Decode baseline sequential JPEG bytes to a uint8 raster —
    (H, W) for 1 component, (H, W, 3) RGB for 3 (YCbCr assumed, JFIF).
    Supported: SOF0/SOF1, 8-bit, huffman, sampling 4:4:4 / 4:2:0
    (chroma upsampled by sample replication), restart markers absent.
    Progressive (SOF2), arithmetic coding (SOF9+), 12-bit, RSTn
    intervals and other sampling layouts raise
    ``NotImplementedError``."""
    b = blob or b""
    if b[:2] != b"\xff\xd8":
        raise ValueError("jpeg: missing SOI")
    i = 2
    qtabs: Dict[int, np.ndarray] = {}
    dc_dec: Dict[int, dict] = {}
    ac_dec: Dict[int, dict] = {}
    comps: List[dict] = []
    h = w = 0
    scan_data = None
    scan_order: List[int] = []
    while i + 4 <= len(b):
        if b[i] != 0xFF:
            raise ValueError("jpeg: bad marker sync")
        marker = b[i + 1]
        if marker == 0xD9:
            break
        if marker == 0x01 or 0xD0 <= marker <= 0xD7:
            i += 2
            continue
        seglen = struct.unpack(">H", b[i + 2:i + 4])[0]
        seg = b[i + 4:i + 2 + seglen]
        if marker == 0xDB:                       # DQT
            j = 0
            while j < len(seg):
                prec = seg[j] >> 4
                tid = seg[j] & 0x0F
                if prec:
                    raise NotImplementedError("jpeg: 16-bit quant table")
                zz = np.frombuffer(seg[j + 1:j + 65], dtype=np.uint8)
                nat = np.zeros(64, np.int64)
                nat[ZIGZAG] = zz
                qtabs[tid] = nat.reshape(8, 8)
                j += 65
        elif marker in (0xC0, 0xC1):             # SOF0/1 baseline
            if seg[0] != 8:
                raise NotImplementedError("jpeg: 12-bit precision")
            h, w = struct.unpack(">HH", seg[1:5])
            n_comp = seg[5]
            for c in range(n_comp):
                cid, sf, qid = seg[6 + 3 * c:9 + 3 * c]
                comps.append({"id": cid, "sh": sf >> 4, "sv": sf & 15,
                              "qid": qid})
        elif marker == 0xC4:                     # DHT
            j = 0
            while j < len(seg):
                tclass = seg[j] >> 4
                tid = seg[j] & 0x0F
                bits = list(seg[j + 1:j + 17])
                n = sum(bits)
                vals = list(seg[j + 17:j + 17 + n])
                tab = _huff_decoder_table(bits, vals)
                (dc_dec if tclass == 0 else ac_dec)[tid] = tab
                j += 17 + n
        elif marker == 0xDD:
            raise NotImplementedError("jpeg: restart intervals")
        elif marker == 0xDA:                     # SOS
            ns = seg[0]
            for c in range(ns):
                cid, tabs = seg[1 + 2 * c:3 + 2 * c]
                for k, comp in enumerate(comps):
                    if comp["id"] == cid:
                        if (tabs >> 4 not in dc_dec
                                or tabs & 15 not in ac_dec):
                            raise ValueError(_UNDEFINED_TABLE)
                        comp["dc"] = dc_dec[tabs >> 4]
                        comp["ac"] = ac_dec[tabs & 15]
                        scan_order.append(k)
            if seg[1 + 2 * ns:4 + 2 * ns] != b"\x00\x3f\x00":
                raise NotImplementedError("jpeg: non-sequential scan")
            scan_data = b[i + 2 + seglen:]
            break
        elif 0xC2 <= marker <= 0xCF and marker not in (0xC4, 0xC8, 0xCC):
            raise NotImplementedError(
                f"jpeg: progressive/arithmetic frame (SOF{marker - 0xC0})")
        i += 2 + seglen
    if scan_data is None or not comps:
        raise ValueError("jpeg: no scan found")
    # trim the trailing EOI from the entropy stream
    end = scan_data.rfind(b"\xff\xd9")
    if end >= 0:
        scan_data = scan_data[:end]

    hmax = max(c["sh"] for c in comps)
    vmax = max(c["sv"] for c in comps)
    supported = {(1, 1)}
    if len(comps) == 3:
        supported = {(1, 1), (2, 2)}
    for c in comps:
        if (c["sh"], c["sv"]) not in supported or (hmax, vmax) not in supported:
            raise NotImplementedError(
                f"jpeg: sampling {c['sh']}x{c['sv']} unsupported")
    mcux = -(-w // (8 * hmax))
    mcuy = -(-h // (8 * vmax))

    r = _BitReader(scan_data)
    blocks: List[List[np.ndarray]] = [[] for _ in comps]
    pred = [0] * len(comps)
    for _ in range(mcux * mcuy):
        for k in scan_order:
            comp = comps[k]
            for _du in range(comp["sh"] * comp["sv"]):
                zz = np.zeros(64, dtype=np.int64)
                # DC
                ln, code = 0, 0
                while True:
                    code = (code << 1) | r.read_bit()
                    ln += 1
                    if (ln, code) in comp["dc"]:
                        t = comp["dc"][(ln, code)]
                        break
                    if ln > 16:
                        raise ValueError("jpeg: bad DC code")
                diff = _extend(r.receive(t), t) if t else 0
                pred[k] += diff
                zz[0] = pred[k]
                # AC
                pos = 1
                while pos < 64:
                    ln, code = 0, 0
                    while True:
                        code = (code << 1) | r.read_bit()
                        ln += 1
                        if (ln, code) in comp["ac"]:
                            sym = comp["ac"][(ln, code)]
                            break
                        if ln > 16:
                            raise ValueError("jpeg: bad AC code")
                    if sym == 0x00:       # EOB
                        break
                    if sym == 0xF0:       # ZRL
                        pos += 16
                        continue
                    run = sym >> 4
                    t = sym & 0x0F
                    pos += run
                    if pos > 63:
                        raise ValueError("jpeg: AC run overflow")
                    zz[pos] = _extend(r.receive(t), t)
                    pos += 1
                blocks[k].append(zz)

    planes: List[np.ndarray] = []
    for k, comp in enumerate(comps):
        sh, sv = comp["sh"], comp["sv"]
        if comp["qid"] not in qtabs:
            raise ValueError(_UNDEFINED_TABLE)
        q = qtabs[comp["qid"]]
        zz = np.array(blocks[k], dtype=np.int64).reshape(-1, 64)
        pix = _decode_component_blocks(zz, q)     # (n, 8, 8)
        # reassemble from MCU emission order
        ph = mcuy * sv * 8
        pw = mcux * sh * 8
        plane = np.zeros((ph, pw), dtype=np.int64)
        bi = 0
        for my in range(mcuy):
            for mx in range(mcux):
                for dy in range(sv):
                    for dx in range(sh):
                        y0 = (my * sv + dy) * 8
                        x0 = (mx * sh + dx) * 8
                        plane[y0:y0 + 8, x0:x0 + 8] = pix[bi]
                        bi += 1
        if sh < hmax or sv < vmax:
            plane = np.repeat(np.repeat(plane, vmax // sv, axis=0),
                              hmax // sh, axis=1)
        planes.append(plane[:h, :w])

    if len(planes) == 1:
        return planes[0].astype(np.uint8)
    ycc = np.stack(planes, axis=-1)
    return _ycbcr_to_rgb(ycc)
