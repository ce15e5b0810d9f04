"""Pure-NumPy media codecs + their wiring into the multimodal stages.

PPM/PGM/BMP/WAV are self-contained formats (header + raw raster/samples)
and PNG needs only stdlib zlib, so decode / featurize / resample are REAL
here — only JPEG/video stay behind the strict-mode stub.
"""

import struct

import numpy as np
import pyarrow as pa
import pytest

from matrixprofile_1_ray.functions.media_codec import (
    audio_features,
    decode_any,
    decode_bmp,
    decode_png,
    decode_ppm,
    decode_wav,
    encode_png,
    encode_ppm,
    encode_wav,
    image_features,
    resize_nearest,
)


def _rand_img(h, w, channels=3, seed=0):
    rng = np.random.default_rng(seed)
    shape = (h, w, 3) if channels == 3 else (h, w)
    return rng.integers(0, 256, size=shape, dtype=np.uint8)


def test_ppm_roundtrip():
    img = _rand_img(17, 23)
    np.testing.assert_array_equal(decode_ppm(encode_ppm(img)), img)


def test_pgm_roundtrip():
    img = _rand_img(9, 11, channels=1, seed=4)
    np.testing.assert_array_equal(decode_ppm(encode_ppm(img)), img)


def test_ppm_header_comments():
    img = _rand_img(3, 4, seed=2)
    body = encode_ppm(img)
    commented = (b"P6\n# a comment\n4 3\n# another\n255\n"
                 + body[body.index(b"255\n") + 4:])
    np.testing.assert_array_equal(decode_ppm(commented), img)


def _encode_bmp24(img: np.ndarray) -> bytes:
    """Minimal bottom-up 24-bit BI_RGB writer (test-local oracle)."""
    h, w = img.shape[:2]
    stride = (w * 3 + 3) & ~3
    raster = np.zeros((h, stride), np.uint8)
    raster[:, : w * 3] = img[::-1, :, ::-1].reshape(h, w * 3)  # BGR, bottom-up
    data = raster.tobytes()
    hdr = (b"BM" + struct.pack("<IHHI", 54 + len(data), 0, 0, 54)
           + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(data),
                         2835, 2835, 0, 0))
    return hdr + data


def test_bmp_decode():
    img = _rand_img(5, 6, seed=7)   # width 6 -> stride has padding
    np.testing.assert_array_equal(decode_bmp(_encode_bmp24(img)), img)


def test_bmp_decode_odd_width_padding():
    img = _rand_img(4, 3, seed=8)   # 3*3=9 bytes/row -> 3 pad bytes
    np.testing.assert_array_equal(decode_bmp(_encode_bmp24(img)), img)


def test_wav_roundtrip_mono_and_stereo():
    rng = np.random.default_rng(5)
    mono = rng.uniform(-1, 1, 480)
    got, rate = decode_wav(encode_wav(mono, 8000))
    assert rate == 8000 and got.shape == (480, 1)
    np.testing.assert_allclose(got[:, 0], mono, atol=1.0 / 16384)

    stereo = rng.uniform(-1, 1, (240, 2))
    got2, rate2 = decode_wav(encode_wav(stereo, 16000))
    assert rate2 == 16000 and got2.shape == (240, 2)
    np.testing.assert_allclose(got2, stereo, atol=1.0 / 16384)


def test_decode_any_dispatch():
    img = _rand_img(4, 4, seed=1)
    kind, val = decode_any("image/x-portable-pixmap", encode_ppm(img))
    assert kind == "image"
    np.testing.assert_array_equal(val, img)
    kind, (samples, rate) = decode_any("audio/wav",
                                       encode_wav(np.zeros(16), 8000))
    assert kind == "audio" and rate == 8000
    # PNG decodes for REAL now (stdlib zlib + NumPy unfiltering); a
    # corrupt payload raises instead of silently returning None
    kind, val = decode_any("image/png", encode_png(_rand_img(4, 4, seed=2)))
    assert kind == "image" and val.shape == (4, 4, 3)
    with pytest.raises(ValueError):
        decode_any("image/png", b"\x89PNG...")
    assert decode_any("text/plain", b"hello") is None


def test_decode_stage_corrupt_payload_fallback(ray_session):
    """A corrupt payload of a self-contained format: non-strict mode
    falls back to the deterministic stub (the stage never dies
    mid-stream), strict mode surfaces the codec error."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import (
        media_features_stage,
        resize_stage,
    )

    media = pa.table({
        "media_id": pa.array(["bad"], pa.string()),
        "mime": pa.array(["audio/wav"], pa.string()),
        "payload": pa.array([b"RIFFxxxxWAVE"], pa.binary()),
        "width": pa.array([0], pa.int32()),
        "height": pa.array([0], pa.int32()),
    })
    out = (media_features_stage(ray.data.from_arrow(media), feature_dim=4)
           .to_pandas())
    f = np.asarray(out.features.iloc[0])
    assert ((f >= 0) & (f < 1)).all()          # sha256 stub features
    with pytest.raises(Exception):
        media_features_stage(ray.data.from_arrow(media), feature_dim=4,
                             strict=True).take_all()

    bad_ppm = pa.table({
        "media_id": pa.array(["bad"], pa.string()),
        "mime": pa.array(["image/x-portable-pixmap"], pa.string()),
        "payload": pa.array([b"P6 garbage"], pa.binary()),
        "width": pa.array([500], pa.int32()),
        "height": pa.array([500], pa.int32()),
    })
    out2 = (resize_stage(ray.data.from_arrow(bad_ppm), max_w=64, max_h=48)
            .to_pandas().iloc[0])
    # metadata-only clamp, payload untouched
    assert (out2.width, out2.height) == (48, 48)
    assert out2.payload == b"P6 garbage"
    with pytest.raises(Exception):
        resize_stage(ray.data.from_arrow(bad_ppm), max_w=64, max_h=48,
                     strict=True).take_all()


def test_resize_nearest_pil_source_selection():
    """Center-based mapping: dst pixel i reads src floor((i+0.5)*scale) —
    PIL's Image.NEAREST selection, so a 4->2 downscale picks source
    indices (1, 3), not (0, 2)."""
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    out = resize_nearest(img, 2, 2)
    np.testing.assert_array_equal(out, img[[1, 3]][:, [1, 3]])
    with pytest.raises(ValueError):
        resize_nearest(img, 0, 2)
    with pytest.raises(ValueError):
        resize_nearest(img[:0], 2, 2)


def test_image_features_grid_means():
    """Constant image -> every grid cell is its luminance / 255."""
    img = np.full((8, 8, 3), 100, np.uint8)
    f = image_features(img, 16)
    assert f.shape == (16,)
    np.testing.assert_allclose(f, 100.0 / 255.0, atol=1e-12)


def test_image_features_smaller_than_grid_finite():
    """An image smaller than the ~sqrt(dim) grid gets one cell per pixel
    row/column — finite features, unused slots zero."""
    f = image_features(np.full((3, 3, 3), 100, np.uint8), 16)
    assert np.isfinite(f).all()
    np.testing.assert_allclose(f[:9], 100.0 / 255.0, atol=1e-12)
    np.testing.assert_array_equal(f[9:], 0.0)
    assert np.isfinite(image_features(np.zeros((0, 4, 3), np.uint8), 8)).all()


def test_audio_features_segment_rms():
    """Constant-amplitude signal -> every segment RMS equals |amp|."""
    f = audio_features(np.full(100, 0.5), 8)
    np.testing.assert_allclose(f, 0.5, atol=1e-12)


def test_audio_features_short_clip_finite():
    """Fewer samples than dim: one segment per sample, rest zero."""
    f = audio_features(np.full(4, 0.5), 16)
    assert np.isfinite(f).all()
    np.testing.assert_allclose(f[:4], 0.5, atol=1e-12)
    np.testing.assert_array_equal(f[4:], 0.0)


def test_wav_malformed_payloads_raise_value_error():
    with pytest.raises(ValueError):
        decode_wav(b"RIFFxxxxWAVE")          # no fmt/data chunks
    bad_channels = bytearray(encode_wav(np.zeros(8), 8000))
    struct.pack_into("<H", bad_channels, 22, 0)  # channels = 0
    with pytest.raises(ValueError):
        decode_wav(bytes(bad_channels))


def test_decode_stage_real_formats(ray_session):
    """The decode stage REALLY decodes ppm/wav rows and only
    falls back to the hash stub for library-needing formats."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import media_features_stage

    img = np.full((6, 6, 3), 128, np.uint8)
    wav = encode_wav(np.full(64, 0.25), 8000)
    media = pa.table({
        "media_id": pa.array(["img", "wav", "png"], pa.string()),
        "mime": pa.array(["image/x-portable-pixmap", "audio/wav",
                          "image/png"], pa.string()),
        "payload": pa.array([encode_ppm(img), wav, b"\x89PNG fake"],
                            pa.binary()),
        "width": pa.array([6, 0, 32], pa.int32()),
        "height": pa.array([6, 0, 32], pa.int32()),
    })
    out = (media_features_stage(ray.data.from_arrow(media), feature_dim=4)
           .to_pandas().set_index("media_id"))
    np.testing.assert_allclose(np.asarray(out.loc["img", "features"]),
                               128.0 / 255.0, atol=1e-12)
    np.testing.assert_allclose(np.asarray(out.loc["wav", "features"]),
                               0.25, atol=1.0 / 16384)
    # png falls back to the sha256 stub (still in [0, 1))
    png_f = np.asarray(out.loc["png", "features"])
    assert ((png_f >= 0) & (png_f < 1)).all()

    # strict mode: real formats decode, png raises
    real_only = media.filter(pa.array([True, True, False]))
    strict_out = media_features_stage(ray.data.from_arrow(real_only),
                                      feature_dim=4, strict=True).to_pandas()
    assert len(strict_out) == 2
    with pytest.raises(Exception):
        media_features_stage(ray.data.from_arrow(media), feature_dim=4,
                             strict=True).take_all()


def test_resize_stage_real_resample(ray_session):
    """Netpbm rows get REAL pixel resampling: payload re-encoded at the
    clamped dims, header dims trusted over sidecar metadata."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import resize_stage

    img = _rand_img(100, 200, seed=11)
    media = pa.table({
        "media_id": pa.array(["a"], pa.string()),
        "mime": pa.array(["image/x-portable-pixmap"], pa.string()),
        "payload": pa.array([encode_ppm(img)], pa.binary()),
        # deliberately wrong sidecar dims: the header must win
        "width": pa.array([999], pa.int32()),
        "height": pa.array([999], pa.int32()),
    })
    out = (resize_stage(ray.data.from_arrow(media), max_w=64, max_h=48)
           .to_pandas().iloc[0])
    # scale = min(64/200, 48/100) = 0.32 -> 64 x 32
    assert (out.width, out.height) == (64, 32)
    back = decode_ppm(out.payload)
    assert back.shape == (32, 64, 3)
    np.testing.assert_array_equal(back, resize_nearest(img, 64, 32))


def test_resize_stage_degenerate_raster_keeps_header_dims(ray_session):
    """A zero-area netpbm raster can't resample: the payload passes
    through untouched and the emitted metadata is the HEADER's dims (the
    stage's own trust rule), never a clamp the payload contradicts."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import resize_stage

    media = pa.table({
        "media_id": pa.array(["z"], pa.string()),
        "mime": pa.array(["image/x-portable-pixmap"], pa.string()),
        "payload": pa.array([b"P6\n0 500\n255\n"], pa.binary()),
        "width": pa.array([0], pa.int32()),
        "height": pa.array([500], pa.int32()),
    })
    out = (resize_stage(ray.data.from_arrow(media), max_w=64, max_h=48)
           .to_pandas().iloc[0])
    assert (out.width, out.height) == (0, 500)
    assert out.payload == b"P6\n0 500\n255\n"


def test_bmp_decode_top_down():
    """Negative biHeight = top-down row order (no flip)."""
    img = _rand_img(4, 5, seed=13)
    h, w = img.shape[:2]
    stride = (w * 3 + 3) & ~3
    raster = np.zeros((h, stride), np.uint8)
    raster[:, : w * 3] = img[:, :, ::-1].reshape(h, w * 3)  # BGR, top-down
    data = raster.tobytes()
    hdr = (b"BM" + struct.pack("<IHHI", 54 + len(data), 0, 0, 54)
           + struct.pack("<IiiHHIIiiII", 40, w, -h, 1, 24, 0, len(data),
                         2835, 2835, 0, 0))
    np.testing.assert_array_equal(decode_bmp(hdr + data), img)


def test_bmp_decode_32bit():
    """32-bit BI_RGB: alpha byte ignored, BGRA -> RGB."""
    img = _rand_img(3, 3, seed=14)
    h, w = img.shape[:2]
    px = np.zeros((h, w, 4), np.uint8)
    px[:, :, :3] = img[:, :, ::-1]
    px[:, :, 3] = 255
    data = px[::-1].tobytes()           # bottom-up, stride = w*4 (aligned)
    hdr = (b"BM" + struct.pack("<IHHI", 54 + len(data), 0, 0, 54)
           + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 32, 0, len(data),
                         2835, 2835, 0, 0))
    np.testing.assert_array_equal(decode_bmp(hdr + data), img)


def test_real_decode_gate_entry_matches_oracle(ray_session):
    """media_real_features: the REAL netpbm decode + grid-luminance
    featurization hash-matches its DuckDB replay bit-exactly (no
    rounding) — the oracle for the real image path, parked past the
    driver's 50-entry window like dataset_split."""
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["media_real_features"](sf).to_pandas() \
        .sort_values(["media_id", "dim"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(e.oracle_sql()["media_real_features"]).df() \
        .sort_values(["media_id", "dim"]).reset_index(drop=True)
    assert len(got) == 64 * 16
    assert list(got.media_id) == list(want.media_id)
    np.testing.assert_array_equal(got.feature.to_numpy(),
                                  want.feature.to_numpy())  # bit-exact


def test_real_wav_gate_entry_matches_oracle(ray_session):
    """media_wav_features: the REAL WAV decode + segment-RMS features
    hash-match their DuckDB replay bit-exactly (samples are exact
    dyadics, so sums are order-independent exact)."""
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["media_wav_features"](sf).to_pandas() \
        .sort_values(["media_id", "dim"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(e.oracle_sql()["media_wav_features"]).df() \
        .sort_values(["media_id", "dim"]).reset_index(drop=True)
    assert len(got) == 64 * 8
    assert list(got.media_id) == list(want.media_id)
    np.testing.assert_array_equal(got.feature.to_numpy(),
                                  want.feature.to_numpy())  # bit-exact


# ------------------------------------------------------------------ PNG

def _naive_unfilter(raw, h, w, bpp):
    """Independent scalar reference for PNG unfiltering, written straight
    from the spec (ISO/IEC 15948 §9): pure-Python per-byte loop, no shared
    code with the engine's vectorized path."""
    stride = w * bpp
    recon = [[0] * stride for _ in range(h)]
    for r in range(h):
        f = raw[r * (stride + 1)]
        line = raw[r * (stride + 1) + 1 : (r + 1) * (stride + 1)]
        for i in range(stride):
            a = recon[r][i - bpp] if i >= bpp else 0
            b = recon[r - 1][i] if r > 0 else 0
            c = recon[r - 1][i - bpp] if (r > 0 and i >= bpp) else 0
            if f == 0:
                pred = 0
            elif f == 1:
                pred = a
            elif f == 2:
                pred = b
            elif f == 3:
                pred = (a + b) // 2
            else:
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa_ <= pb and pa_ <= pc) else \
                    (b if pb <= pc else c)
            recon[r][i] = (line[i] + pred) & 0xFF
    return np.array(recon, np.uint8)


def test_png_roundtrip_all_shapes():
    rng = np.random.default_rng(3)
    for shape in [(8, 8), (8, 8, 2), (8, 8, 3), (8, 8, 4), (1, 1),
                  (13, 7, 3), (3, 1, 4), (1, 9)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        for filters in ("cycle", "none"):
            back = decode_png(encode_png(img, filters=filters))
            assert back.shape == img.shape
            np.testing.assert_array_equal(back, img)


def test_png_unfilter_matches_naive_reference():
    """The vectorized unfilter agrees byte-for-byte with a scalar
    spec-literal implementation on random filtered streams covering all
    five filter types."""
    import zlib

    from matrixprofile_1_ray.functions.media_codec import (
        _unfilter_scanlines,
    )

    rng = np.random.default_rng(11)
    for bpp in (1, 2, 3, 4):
        h, w = 9, 6
        stride = w * bpp
        rows = bytearray()
        for r in range(h):
            rows.append(int(rng.integers(0, 5)))    # random filter type
            rows.extend(rng.integers(0, 256, stride, dtype=np.uint8)
                        .tobytes())
        raw = bytes(rows)
        got = _unfilter_scanlines(raw, h, w, bpp)
        want = _naive_unfilter(raw, h, w, bpp)
        np.testing.assert_array_equal(got, want)
        # and the same stream wrapped as a full PNG file decodes equal
        ctype = {1: 0, 2: 4, 3: 2, 4: 6}[bpp]
        from matrixprofile_1_ray.functions.media_codec import (
            _PNG_SIG,
            _png_chunk,
        )
        ihdr = struct.pack(">IIBBBBB", w, h, 8, ctype, 0, 0, 0)
        buf = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"IDAT", zlib.compress(raw))
               + _png_chunk(b"IEND", b""))
        dec = decode_png(buf)
        np.testing.assert_array_equal(
            dec.reshape(h, stride), want)


def test_png_palette_decode():
    import zlib

    from matrixprofile_1_ray.functions.media_codec import (
        _PNG_SIG,
        _png_chunk,
    )

    pal = np.array([[255, 0, 0], [0, 255, 0], [0, 0, 255]], np.uint8)
    idx = np.array([[0, 1], [2, 0]], np.uint8)
    raw = b"".join(b"\x00" + idx[r].tobytes() for r in range(2))
    ihdr = struct.pack(">IIBBBBB", 2, 2, 8, 3, 0, 0, 0)
    buf = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
           + _png_chunk(b"PLTE", pal.tobytes())
           + _png_chunk(b"IDAT", zlib.compress(raw))
           + _png_chunk(b"IEND", b""))
    np.testing.assert_array_equal(decode_png(buf), pal[idx])
    # palette index past PLTE end must raise, not read garbage
    raw_bad = b"\x00" + bytes([7, 0]) + b"\x00" + bytes([1, 2])
    buf_bad = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
               + _png_chunk(b"PLTE", pal.tobytes())
               + _png_chunk(b"IDAT", zlib.compress(raw_bad))
               + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png(buf_bad)


def test_png_corrupt_inputs_raise():
    import zlib

    from matrixprofile_1_ray.functions.media_codec import (
        _PNG_SIG,
        _png_chunk,
    )

    img = np.zeros((4, 4, 3), np.uint8)
    good = encode_png(img)
    with pytest.raises(ValueError):
        decode_png(b"not a png at all")
    with pytest.raises(ValueError):
        decode_png(good[:20])                       # truncated mid-chunk
    # flipped payload byte -> CRC mismatch
    bad = bytearray(good)
    bad[40] ^= 0xFF
    with pytest.raises(ValueError):
        decode_png(bytes(bad))
    # undersized IDAT (fewer scanlines than IHDR promises)
    ihdr = struct.pack(">IIBBBBB", 4, 4, 8, 2, 0, 0, 0)
    short = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
             + _png_chunk(b"IDAT", zlib.compress(b"\x00" * 13))
             + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png(short)
    # invalid filter type byte
    raw = b"\x07" + b"\x00" * 12
    badf = (_PNG_SIG + _png_chunk(b"IHDR",
                                  struct.pack(">IIBBBBB", 4, 1, 8, 2, 0, 0, 0))
            + _png_chunk(b"IDAT", zlib.compress(raw))
            + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png(badf)
    # interlaced + 16-bit depth both rejected honestly
    for depth, inter in ((16, 0), (8, 1)):
        hdr = struct.pack(">IIBBBBB", 4, 4, depth, 2, 0, inter, 0)
        buf = (_PNG_SIG + _png_chunk(b"IHDR", hdr)
               + _png_chunk(b"IDAT", zlib.compress(b"\x00" * 13))
               + _png_chunk(b"IEND", b""))
        with pytest.raises(ValueError):
            decode_png(buf)


def test_png_decode_stage_real_features(ray_session):
    """A PNG payload flows through the ACTUAL decode stage — zlib inflate
    + unfiltering + grid-luminance features — no stub involved."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import media_features_stage

    img = np.full((6, 6, 3), 128, np.uint8)
    media = pa.table({
        "media_id": pa.array(["png"], pa.string()),
        "mime": pa.array(["image/png"], pa.string()),
        "payload": pa.array([encode_png(img)], pa.binary()),
        "width": pa.array([6], pa.int32()),
        "height": pa.array([6], pa.int32()),
    })
    out = (media_features_stage(ray.data.from_arrow(media), feature_dim=4,
                                strict=True)       # strict: no fallback
           .to_pandas())
    np.testing.assert_allclose(np.asarray(out.features.iloc[0]),
                               128.0 / 255.0, atol=1e-12)


def test_resize_stage_real_png_resample(ray_session):
    """PNG rows get REAL pixel resampling too: decode -> nearest ->
    re-encode, new payload decodes to the clamped dims."""
    import ray.data

    from matrixprofile_1_ray.stages.multimodal import resize_stage

    img = np.arange(16 * 8 * 3, dtype=np.uint8).reshape(16, 8, 3)
    media = pa.table({
        "media_id": pa.array(["p"], pa.string()),
        "mime": pa.array(["image/png"], pa.string()),
        "payload": pa.array([encode_png(img)], pa.binary()),
        "width": pa.array([8], pa.int32()),
        "height": pa.array([16], pa.int32()),
    })
    out = (resize_stage(ray.data.from_arrow(media), max_w=4, max_h=4,
                        strict=True).to_pandas().iloc[0])
    assert (out.width, out.height) == (2, 4)    # aspect-preserving fit
    back = decode_png(out.payload)
    assert back.shape == (4, 2, 3)
    np.testing.assert_array_equal(back, resize_nearest(img, 2, 4))


def test_adam7_pass_layout_matches_spec():
    """The 8x8 pass-assignment grid is the canonical Adam7 pattern
    (PNG spec figure 8.2)."""
    from matrixprofile_1_ray.functions.media_codec import _ADAM7

    grid = np.zeros((8, 8), np.int64)
    for p, (x0, y0, dx, dy) in enumerate(_ADAM7, start=1):
        grid[y0::dy, x0::dx] = p
    expect = np.array([
        [1, 6, 4, 6, 2, 6, 4, 6],
        [7, 7, 7, 7, 7, 7, 7, 7],
        [5, 6, 5, 6, 5, 6, 5, 6],
        [7, 7, 7, 7, 7, 7, 7, 7],
        [3, 6, 4, 6, 3, 6, 4, 6],
        [7, 7, 7, 7, 7, 7, 7, 7],
        [5, 6, 5, 6, 5, 6, 5, 6],
        [7, 7, 7, 7, 7, 7, 7, 7]])
    np.testing.assert_array_equal(grid, expect)


def test_adam7_interlaced_roundtrip_lossless():
    """Interlaced encode -> decode is bit-exact and equals the
    non-interlaced decode, across shapes smaller and larger than one
    8x8 pass tile, all filter modes, every channel count."""
    rng = np.random.default_rng(5)
    for shape in [(8, 8, 3), (13, 17, 3), (1, 1), (2, 3), (7, 5, 4),
                  (16, 16, 2), (3, 9), (64, 48, 3)]:
        img = rng.integers(0, 256, shape, dtype=np.uint8)
        for filt in ("none", "cycle"):
            inter = decode_png(encode_png(img, filters=filt,
                                          interlace=True))
            plain = decode_png(encode_png(img, filters=filt))
            np.testing.assert_array_equal(inter, plain)
            np.testing.assert_array_equal(inter.reshape(img.shape), img)


def test_adam7_truncated_stream_raises():
    import zlib

    img = np.arange(8 * 8 * 3, dtype=np.uint8).reshape(8, 8, 3)
    good = encode_png(img, interlace=True)
    # rebuild with the IDAT payload cut short: the pass walk must notice
    from matrixprofile_1_ray.functions.media_codec import (
        _PNG_SIG,
        _png_chunk,
    )

    raw = zlib.decompress(good[good.index(b"IDAT") + 4:
                               good.index(b"IEND") - 4])
    ihdr = good[good.index(b"IHDR") + 4 : good.index(b"IHDR") + 17]
    bad = (_PNG_SIG + _png_chunk(b"IHDR", ihdr)
           + _png_chunk(b"IDAT", zlib.compress(raw[: len(raw) // 2]))
           + _png_chunk(b"IEND", b""))
    with pytest.raises(ValueError, match="Adam7|shorter"):
        decode_png(bad)
