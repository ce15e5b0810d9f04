"""Baseline JPEG codec (functions/jpeg_codec.py): component-level spec
checks (zigzag, DCT orthonormality, Annex-K tables, canonical Huffman
codes), roundtrip error bounds across encode variants, corrupt-input
errors, and the strict Ray decode stage end-to-end."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from matrixprofile_1_ray.functions.jpeg_codec import (
    AC_LUMA_BITS,
    AC_LUMA_VALS,
    DC_LUMA_BITS,
    DC_LUMA_VALS,
    QUANT_LUMA,
    ZIGZAG,
    _build_huffman_codes,
    _DCT,
    decode_jpeg,
    encode_jpeg,
    quant_tables,
)


def _gradient_rgb(h=32, w=48):
    y, x = np.mgrid[0:h, 0:w]
    return np.stack([x * 255 // (w - 1), y * 255 // (h - 1),
                     (x + y) * 255 // (w + h - 2)], -1).astype(np.uint8)


# ------------------------------------------------------- component spec

def test_zigzag_matches_t81_figure5():
    # first and last entries of the canonical zigzag scan, natural index
    expect_head = [0, 1, 8, 16, 9, 2, 3, 10]
    expect_tail = [53, 60, 61, 54, 47, 55, 62, 63]
    assert ZIGZAG[:8].tolist() == expect_head
    assert ZIGZAG[-8:].tolist() == expect_tail
    assert sorted(ZIGZAG.tolist()) == list(range(64))


def test_dct_matrix_orthonormal():
    np.testing.assert_allclose(_DCT @ _DCT.T, np.eye(8), atol=1e-12)


def test_quant_quality_scaling():
    # q=50 is the unscaled Annex K table; q=100 is all-ones
    assert (quant_tables(50)[0] == QUANT_LUMA).all()
    assert (quant_tables(100)[0] == 1).all()
    # monotone: lower quality -> coarser steps
    assert (quant_tables(10)[0] >= quant_tables(90)[0]).all()
    assert QUANT_LUMA[0] == 16 and QUANT_LUMA[63] == 99   # spec spots


def test_huffman_canonical_codes():
    dc = _build_huffman_codes(DC_LUMA_BITS, DC_LUMA_VALS)
    # T.81 Table K.3: category 0 -> 00 (2 bits), 1 -> 010, 2 -> 011
    assert dc[0] == (0b00, 2)
    assert dc[1] == (0b010, 3)
    assert dc[2] == (0b011, 3)
    ac = _build_huffman_codes(AC_LUMA_BITS, AC_LUMA_VALS)
    # T.81 Table K.5: EOB (0x00) -> 1010 (4 bits), 0x01 -> 00 (2 bits)
    assert ac[0x00] == (0b1010, 4)
    assert ac[0x01] == (0b00, 2)
    # prefix-free: no code is a prefix of a longer one
    codes = sorted(((c, n) for c, n in ac.values()), key=lambda t: t[1])
    for i, (c1, n1) in enumerate(codes):
        for c2, n2 in codes[i + 1:]:
            if n2 > n1:
                assert (c2 >> (n2 - n1)) != c1


# ----------------------------------------------------------- roundtrips

def test_uniform_color_near_exact():
    img = np.full((16, 24, 3), [120, 64, 200], np.uint8)
    dec = decode_jpeg(encode_jpeg(img, quality=90))
    assert dec.shape == img.shape and dec.dtype == np.uint8
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 2


def test_gradient_roundtrip_bound():
    img = _gradient_rgb()
    dec = decode_jpeg(encode_jpeg(img, quality=95))
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 6


def test_grayscale_roundtrip():
    g = _gradient_rgb()[:, :, 0]
    dec = decode_jpeg(encode_jpeg(g, quality=95))
    assert dec.shape == g.shape and dec.ndim == 2
    assert np.abs(dec.astype(int) - g.astype(int)).max() <= 4


def test_subsampled_420_roundtrip():
    img = _gradient_rgb()
    dec = decode_jpeg(encode_jpeg(img, quality=95, subsample=True))
    assert dec.shape == img.shape
    # chroma is halved then nearest-upsampled: looser but bounded
    assert np.abs(dec.astype(int) - img.astype(int)).max() <= 16


def test_restart_markers_do_not_change_pixels():
    img = _gradient_rgb()
    plain = decode_jpeg(encode_jpeg(img, quality=90))
    rst = decode_jpeg(encode_jpeg(img, quality=90, restart_interval=2))
    assert (plain == rst).all()
    rst420 = decode_jpeg(encode_jpeg(img, quality=90, subsample=True,
                                     restart_interval=1))
    plain420 = decode_jpeg(encode_jpeg(img, quality=90, subsample=True))
    assert (rst420 == plain420).all()


def test_odd_dimensions_all_variants():
    rng = np.random.default_rng(3)
    img = rng.integers(0, 256, (13, 17, 3), dtype=np.uint8)
    for kw in ({}, {"subsample": True}, {"restart_interval": 1},
               {"subsample": True, "restart_interval": 2}):
        dec = decode_jpeg(encode_jpeg(img, quality=90, **kw))
        assert dec.shape == (13, 17, 3)
    g = rng.integers(0, 256, (9, 11), dtype=np.uint8)
    assert decode_jpeg(encode_jpeg(g)).shape == (9, 11)


def test_quality_monotone_error():
    img = _gradient_rgb()
    errs = []
    for q in (30, 60, 90):
        dec = decode_jpeg(encode_jpeg(img, quality=q))
        errs.append(float(np.abs(dec.astype(float) - img).mean()))
    assert errs[0] >= errs[1] >= errs[2]


def test_deterministic_bytes():
    img = _gradient_rgb()
    assert encode_jpeg(img, quality=80) == encode_jpeg(img, quality=80)


def test_fill_bytes_before_markers_are_skipped():
    """T.81 B.1.1.2: any marker may be preceded by 0xFF fill bytes."""
    good = encode_jpeg(_gradient_rgb(), quality=90)
    padded, pos = bytearray(good[:2]), 2
    while True:                         # header segments up to SOS
        marker = good[pos + 1]
        if marker == 0xDA:
            break
        seglen = int.from_bytes(good[pos + 2 : pos + 4], "big")
        if marker in (0xDB, 0xC4):      # DQT, DHT
            padded += b"\xFF" * 3
        padded += good[pos : pos + 2 + seglen]
        pos += 2 + seglen
    padded += good[pos:]
    assert len(padded) > len(good)
    assert (decode_jpeg(bytes(padded)) == decode_jpeg(good)).all()


def test_single_component_scan_ignores_declared_sampling():
    """T.81 A.2.2: a one-component scan is non-interleaved, so a
    grayscale frame declaring 2x2 sampling decodes over the same
    ceil(w/8) x ceil(h/8) block grid as one declaring 1x1."""
    g = np.random.default_rng(5).integers(0, 256, (19, 21), dtype=np.uint8)
    good = encode_jpeg(g, quality=90)
    sof = good.index(b"\xFF\xC0")
    # SOF0: marker, length, precision, height, width, Nf, then C1 id
    # and its sampling byte
    samp = sof + 2 + 2 + 1 + 2 + 2 + 1 + 1
    assert good[samp] == 0x11
    patched = good[:samp] + b"\x22" + good[samp + 1:]
    assert (decode_jpeg(patched) == decode_jpeg(good)).all()


# --------------------------------------------------------- error paths

def test_corrupt_inputs_raise():
    img = np.full((8, 8, 3), 99, np.uint8)
    good = encode_jpeg(img)
    with pytest.raises(ValueError, match="SOI"):
        decode_jpeg(b"\x89PNG" + good)
    with pytest.raises(ValueError, match="baseline"):
        # flip SOF0 -> SOF2 (progressive)
        decode_jpeg(good.replace(b"\xFF\xC0", b"\xFF\xC2", 1))
    with pytest.raises(ValueError):
        decode_jpeg(good[:len(good) // 2])      # truncated mid-stream
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((0, 4, 3), np.uint8))
    with pytest.raises(ValueError):
        encode_jpeg(np.zeros((4, 4, 2), np.uint8))


# ------------------------------------------------- Ray stage end-to-end

def test_strict_decode_stage_jpeg(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import (
        media_features_stage,
    )

    img = _gradient_rgb(16, 16)
    tbl = pa.table({
        "media_id": pa.array(["a", "b"], pa.string()),
        "mime": pa.array(["image/jpeg"] * 2, pa.string()),
        "payload": pa.array([encode_jpeg(img, quality=90),
                             encode_jpeg(img, quality=90,
                                         subsample=True)], pa.binary()),
        "width": pa.array(np.full(2, 16, np.int32)),
        "height": pa.array(np.full(2, 16, np.int32)),
    })
    out = media_features_stage(ray.data.from_arrow(tbl), feature_dim=16,
                               strict=True).to_pandas()
    assert len(out) == 2
    feats = np.stack(out["features"].to_numpy())
    assert feats.shape == (2, 16)
    # grid-luminance means of a near-identical decode: the two encode
    # variants must land close, and nothing may be NaN/stub-valued
    assert np.isfinite(feats).all()
    assert np.abs(feats[0] - feats[1]).max() <= 8.0


def test_resize_stage_jpeg_real_resample(ray_session):
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import resize_stage

    img = _gradient_rgb(32, 32)
    tbl = pa.table({
        "media_id": pa.array(["a"], pa.string()),
        "mime": pa.array(["image/jpeg"], pa.string()),
        "payload": pa.array([encode_jpeg(img, quality=95)], pa.binary()),
        "width": pa.array(np.full(1, 32, np.int32)),
        "height": pa.array(np.full(1, 32, np.int32)),
    })
    out = resize_stage(ray.data.from_arrow(tbl), max_w=16,
                       max_h=16, strict=True).to_pandas()
    assert (out["width"] == 16).all() and (out["height"] == 16).all()
    dec = decode_jpeg(out["payload"].iloc[0])
    assert dec.shape == (16, 16, 3)
