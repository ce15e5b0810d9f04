"""Multimodal column stages: opaque binary payloads + typed metadata.

Image/audio/video travel as Arrow ``binary`` columns with sidecar metadata
(mime, width/height or sample rate, frame count).  Decode / feature-extract
/ resize / frame-sample run as ``map_batches`` task stages.

Self-contained formats — netpbm PPM/PGM, uncompressed BMP, PCM WAV,
8-bit PNG (stdlib zlib inflate + vectorized unfiltering), and baseline
JPEG (pure-NumPy entropy decode + IDCT, functions/jpeg_codec.py) — are
REALLY decoded, featurized and resampled (no external library needed).
Formats whose codecs genuinely require libraries absent from this
container (video/MP4, progressive JPEG) go through the honest stub:
``media_features_batch`` either raises ``NotImplementedError`` (strict
mode) or produces a deterministic fake decode keyed on the payload hash
(test mode).  Swap ``_decode_payload``'s fallback for a real PIL/libav
call on a cluster that has the libraries — nothing else changes.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..functions.media_codec import (
    audio_features,
    decode_any,
    decode_ppm,
    encode_ppm,
    image_features,
    resize_nearest,
)

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("mime", pa.string()),
    ("payload", pa.binary()),
    ("width", pa.int32()),
    ("height", pa.int32()),
])


def make_fake_media_table(n: int, seed: int = 0) -> pa.Table:
    """Deterministic fake media corpus for plumbing tests."""
    rng = np.random.default_rng(seed)
    payloads = [rng.integers(0, 256, size=int(rng.integers(512, 4096)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table({
        "media_id": pa.array([f"m{i:06d}" for i in range(n)], pa.string()),
        "mime": pa.array(["image/png"] * n, pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(rng.integers(32, 256, n).astype(np.int32)),
        "height": pa.array(rng.integers(32, 256, n).astype(np.int32)),
    })


def media_from_documents(sf_dir: str, n: int = 64) -> pa.Table:
    """Media corpus derived from the documents table: payload = UTF-8 text
    bytes of the first ``n`` docs in lexicographic doc_id order (matching
    ``ORDER BY CAST(doc_id AS VARCHAR) LIMIT n`` so the DuckDB oracle sees
    the same payload set).  The payloads are *opaque bytes* to every stage
    downstream — exactly how real image/audio columns would flow."""
    from ..sources.sequences import iter_docs_lex

    head = next(iter_docs_lex(sf_dir, ("doc_id", "text"), chunk=n), None)
    if head is None:
        head = pa.table({"doc_id": pa.array([], pa.string()),
                         "text": pa.array([], pa.string())})
    return pa.table({
        "media_id": head["doc_id"],
        "mime": pa.array(["text/plain"] * len(head), pa.string()),
        "payload": pa.array([t.encode() for t in head["text"].to_pylist()],
                            pa.binary()),
        "width": pa.array(np.zeros(len(head), np.int32)),
        "height": pa.array(np.zeros(len(head), np.int32)),
    })


def ascii_ppm_media_from_documents(sf_dir: str, n: int = 64,
                                   w: int = 8, h: int = 8) -> pa.Table:
    """Media corpus whose payloads are REAL PPM images the oracle can
    replay: the first ``n`` lexicographic ASCII-only docs (the ASCII
    guard — every code point < 128 — is bit-identical to DuckDB's
    ``length(text) = octet_length(text::BLOB)``), raster = the text's
    first ``w*h*3`` bytes zero-padded.  Runs the REAL netpbm decode +
    grid-luminance featurization downstream, every step of which is pure
    integer/IEEE arithmetic a SQL engine reproduces exactly."""
    from ..sources.sequences import iter_docs_lex

    need = w * h * 3
    ids, payloads = [], []
    for chunk in iter_docs_lex(sf_dir, ("doc_id", "text")):
        for doc, text in zip(chunk["doc_id"].to_pylist(),
                             chunk["text"].to_pylist()):
            if text is None or any(ord(c) >= 128 for c in text):
                continue
            raster = text.encode()[:need].ljust(need, b"\0")
            ids.append(doc)
            payloads.append(b"P6\n%d %d\n255\n" % (w, h) + raster)
            if len(ids) == n:
                break
        if len(ids) == n:
            break
    return pa.table({
        "media_id": pa.array(ids, pa.string()),
        "mime": pa.array(["image/x-portable-pixmap"] * len(ids),
                         pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(np.full(len(ids), w, np.int32)),
        "height": pa.array(np.full(len(ids), h, np.int32)),
    })


def ascii_png_media_from_documents(sf_dir: str, n: int = 64,
                                   w: int = 8, h: int = 8) -> pa.Table:
    """Media corpus whose payloads are REAL PNG images: same ASCII doc
    slice and raster bytes as :func:`ascii_ppm_media_from_documents`, but
    deflate-compressed with the row filters cycling through all five PNG
    types (None/Sub/Up/Average/Paeth) and the interlace method
    alternating none/Adam7 per doc, so the decode stage's unfiltering
    AND deinterlacing paths are ALL on the oracle's critical path.  PNG
    is lossless, so the decoded pixels equal the text-derived raster
    bit-exactly and the featurization replay (the same SQL as the PPM
    corpus) verifies the inflate + unfilter + deinterlace chain
    end-to-end."""
    from ..functions.media_codec import encode_png
    from ..sources.sequences import iter_docs_lex

    need = w * h * 3
    ids, payloads = [], []
    for chunk in iter_docs_lex(sf_dir, ("doc_id", "text")):
        for doc, text in zip(chunk["doc_id"].to_pylist(),
                             chunk["text"].to_pylist()):
            if text is None or any(ord(c) >= 128 for c in text):
                continue
            raster = text.encode()[:need].ljust(need, b"\0")
            img = np.frombuffer(raster, np.uint8).reshape(h, w, 3)
            payloads.append(encode_png(img, filters="cycle",
                                       interlace=bool(len(ids) % 2)))
            ids.append(doc)
            if len(ids) == n:
                break
        if len(ids) == n:
            break
    return pa.table({
        "media_id": pa.array(ids, pa.string()),
        "mime": pa.array(["image/png"] * len(ids), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(np.full(len(ids), w, np.int32)),
        "height": pa.array(np.full(len(ids), h, np.int32)),
    })


def ascii_jpeg_media_from_documents(sf_dir: str, n: int = 64,
                                    w: int = 16, h: int = 16) -> pa.Table:
    """Media corpus whose payloads are REAL baseline JPEGs: same ASCII doc
    slice and text-derived raster as :func:`ascii_ppm_media_from_documents`
    (at 16x16 so the image spans multiple MCUs), encoded with the corpus
    cycling through 4:4:4 / 4:2:0 and restart-interval variants so the
    decoder's subsampled-upsample and RST paths are all exercised.  JPEG
    is LOSSY (DCT quantization), so unlike the PPM/PNG/WAV families the
    decoded pixels are NOT SQL-replayable — this family is covered by
    rows-only gating plus the codec's own roundtrip-bound unit tests."""
    from ..functions.jpeg_codec import encode_jpeg
    from ..sources.sequences import iter_docs_lex

    need = w * h * 3
    ids, payloads = [], []
    for chunk in iter_docs_lex(sf_dir, ("doc_id", "text")):
        for doc, text in zip(chunk["doc_id"].to_pylist(),
                             chunk["text"].to_pylist()):
            if text is None or any(ord(c) >= 128 for c in text):
                continue
            raster = text.encode()[:need].ljust(need, b"\0")
            img = np.frombuffer(raster, np.uint8).reshape(h, w, 3)
            k = len(ids)
            payloads.append(encode_jpeg(
                img, quality=90, subsample=bool(k % 2),
                restart_interval=2 if k % 3 == 0 else 0))
            ids.append(doc)
            if len(ids) == n:
                break
        if len(ids) == n:
            break
    return pa.table({
        "media_id": pa.array(ids, pa.string()),
        "mime": pa.array(["image/jpeg"] * len(ids), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(np.full(len(ids), w, np.int32)),
        "height": pa.array(np.full(len(ids), h, np.int32)),
    })


def ascii_wav_media_from_documents(sf_dir: str, n: int = 64,
                                   n_samples: int = 64) -> pa.Table:
    """Media corpus whose payloads are REAL PCM WAVs the oracle can
    replay: same ASCII doc slice as :func:`ascii_ppm_media_from_documents`,
    PCM data = the text's first ``2 * n_samples`` bytes zero-padded
    (little-endian int16).  Every decoded sample is k/32768 with |k| <=
    32768 — an exact dyadic — so the downstream RMS featurization is
    EXACT arithmetic end-to-end (order-independent sums), bit-identical
    in SQL."""
    import struct

    from ..sources.sequences import iter_docs_lex

    need = 2 * n_samples
    ids, payloads = [], []
    for chunk in iter_docs_lex(sf_dir, ("doc_id", "text")):
        for doc, text in zip(chunk["doc_id"].to_pylist(),
                             chunk["text"].to_pylist()):
            if text is None or any(ord(c) >= 128 for c in text):
                continue
            data = text.encode()[:need].ljust(need, b"\0")
            hdr = (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
                   + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000,
                                           16000, 2, 16)
                   + b"data" + struct.pack("<I", len(data)))
            ids.append(doc)
            payloads.append(hdr + data)
            if len(ids) == n:
                break
        if len(ids) == n:
            break
    return pa.table({
        "media_id": pa.array(ids, pa.string()),
        "mime": pa.array(["audio/wav"] * len(ids), pa.string()),
        "payload": pa.array(payloads, pa.binary()),
        "width": pa.array(np.zeros(len(ids), np.int32)),
        "height": pa.array(np.zeros(len(ids), np.int32)),
    })


def _decode_payload(payload: bytes, mime: str, feature_dim: int,
                    strict: bool) -> np.ndarray:
    try:
        decoded = decode_any(mime, payload)
    except Exception:
        # corrupt payload of a self-contained format: strict mode
        # surfaces the codec error (honest), test mode falls back to
        # the deterministic stub so the stage never dies mid-stream
        if strict:
            raise
        decoded = None
    if decoded is not None:
        kind, value = decoded
        if kind == "image":
            return image_features(value, feature_dim)
        samples, _rate = value
        return audio_features(samples, feature_dim)
    if strict:
        raise NotImplementedError(
            f"no codec for {mime!r} in this container; PPM/PGM/BMP/WAV/"
            "PNG/JPEG decode natively — plug a real decoder here for "
            "the rest (PIL.Image.open / av.open)")
    # feature d = first 32 bits of sha256(payload || str(d)), scaled to
    # [0, 1).  Division by 2^32 is exact in float64, so the fake decode
    # is bit-reproducible in ANY engine with sha256 — the gate's DuckDB
    # oracle recomputes these values in SQL.
    vals = [int(hashlib.sha256(payload + str(d).encode())
                .hexdigest()[:8], 16) for d in range(feature_dim)]
    return np.asarray(vals, dtype=np.float64) / 4294967296.0


def media_features_batch(batch: pa.Table, feature_dim: int = 16,
                         strict: bool = False) -> pa.Table:
    """(media_id, mime, features) per payload.  Self-contained formats
    (PPM/PGM/BMP/WAV) and PNG/JPEG are REALLY decoded and featurized —
    grid luminance means for images, segment RMS energy for audio.  For
    everything else strict=True raises (the honest stub) and strict=False
    emits a deterministic fake feature vector per payload so downstream
    stages are testable end-to-end."""
    if len(batch) == 0:
        # np.stack([]) raises; empty blocks pass through typed-empty
        return pa.table({
            "media_id": batch["media_id"],
            "mime": batch["mime"],
            "features": pa.array([], pa.list_(pa.float64())),
        })
    feats = np.stack([_decode_payload(p.as_py(), m, feature_dim, strict)
                      for p, m in zip(batch["payload"].combine_chunks(),
                                      batch["mime"].to_pylist())])
    off = pa.array(np.arange(len(batch) + 1, dtype=np.int32) * feature_dim,
                   pa.int32())
    return pa.table({
        "media_id": batch["media_id"],
        "mime": batch["mime"],
        "features": pa.ListArray.from_arrays(
            off, pa.array(feats.reshape(-1), pa.float64())),
    })


def media_features_stage(ds, feature_dim: int = 16, strict: bool = False,
                         batch_size: int = 32):
    """Binary payloads are large: small batches, Arrow-only (binary
    columns do not survive pandas round-trips)."""
    return ds.map_batches(
        media_features_batch,
        fn_kwargs={"feature_dim": feature_dim, "strict": strict},
        batch_format="pyarrow", batch_size=batch_size)


_NETPBM_MIMES = {"image/x-portable-pixmap", "image/x-portable-graymap"}


def _clamp_dims(w: int, h: int, max_w: int, max_h: int) -> tuple[int, int]:
    """Aspect-preserving fit of (w, h) inside (max_w, max_h), never
    upscaling.  A zero dim stays zero (unknown declared size) while the
    other still clamps by its own axis."""
    scale = min(1.0,
                max_w / w if w > 0 else 1.0,
                max_h / h if h > 0 else 1.0)
    return (max(1, int(np.floor(w * scale))) if w > 0 else 0,
            max(1, int(np.floor(h * scale))) if h > 0 else 0)


def _resize_payload(payload: bytes, mime: str, w: int, h: int,
                    max_w: int, max_h: int,
                    strict: bool) -> tuple[bytes, int, int]:
    """-> (payload, new_w, new_h); real pixels for netpbm/PNG/JPEG,
    declared metadata clamp otherwise."""
    if (mime in _NETPBM_MIMES or mime == "image/png"
            or mime == "image/jpeg"):
        try:
            if mime == "image/png":
                from ..functions.media_codec import decode_png, encode_png

                img = decode_png(payload)
                encode = encode_png
            elif mime == "image/jpeg":
                from ..functions.jpeg_codec import decode_jpeg, encode_jpeg

                img = decode_jpeg(payload)
                encode = encode_jpeg
            else:
                img = decode_ppm(payload)
                encode = encode_ppm
            ih, iw = img.shape[:2]      # trust the header, not sidecar
            nw, nh = _clamp_dims(iw, ih, max_w, max_h)
            if (nw, nh) != (iw, ih) and min(ih, iw, nh, nw) > 0:
                img = resize_nearest(img, nw, nh)
                return encode(img), nw, nh
            # unchanged or degenerate (zero-area, unresampleable) raster:
            # payload untouched, so the emitted metadata must be the
            # HEADER's dims — clamping it would contradict the payload
            # this very stage says to trust
            return payload, iw, ih
        except Exception:
            if strict:
                raise       # corrupt payload: surface the codec error
            # fall through to the opaque metadata-only clamp
    elif strict:
        raise NotImplementedError(
            f"no codec for {mime!r} in this container; netpbm/PNG/JPEG "
            "resample natively — plug a real resampler here for the "
            "rest (PIL.Image.open(...).resize(...))")
    nw, nh = _clamp_dims(int(w), int(h), max_w, max_h)
    return payload, nw, nh  # opaque pass-through, metadata-only clamp


def resize_batch(batch: pa.Table, max_w: int = 224, max_h: int = 224,
                 strict: bool = False) -> pa.Table:
    """Resize every payload to fit inside ``(max_w, max_h)``: netpbm, PNG
    and baseline JPEG payloads are REALLY resampled (decode ->
    nearest-neighbor -> re-encode, pure NumPy + zlib) using the header's
    actual dims; other formats have their declared metadata clamped,
    aspect-preserved, while the payload passes through opaque (strict
    mode raises instead — no video codec in this container; swap the
    fallback for a real ``PIL.Image.resize`` / ``av`` on a cluster that
    has them)."""
    if len(batch) == 0:
        return batch
    payloads, new_w, new_h = [], [], []
    for p, m, w, h in zip(batch["payload"].combine_chunks(),
                          batch["mime"].to_pylist(),
                          batch["width"].to_pylist(),
                          batch["height"].to_pylist()):
        body, nw, nh = _resize_payload(p.as_py(), m, w or 0, h or 0,
                                       int(max_w), int(max_h), strict)
        payloads.append(body)
        new_w.append(nw)
        new_h.append(nh)
    out = batch.set_column(batch.schema.get_field_index("payload"),
                           "payload", pa.array(payloads, pa.binary()))
    out = out.set_column(out.schema.get_field_index("width"), "width",
                         pa.array(new_w, pa.int32()))
    return out.set_column(out.schema.get_field_index("height"), "height",
                          pa.array(new_h, pa.int32()))


def resize_stage(ds, max_w: int = 224, max_h: int = 224,
                 strict: bool = False, batch_size: int = 32):
    """Resize over a media Dataset (small batches — payloads are large;
    same sizing rationale as :func:`media_features_stage`)."""
    return ds.map_batches(
        resize_batch,
        fn_kwargs={"max_w": max_w, "max_h": max_h, "strict": strict},
        batch_format="pyarrow", batch_size=batch_size)


def frame_sample_batch(batch: pa.Table, every: int = 10) -> pa.Table:
    """Frame-sampling plumbing for video rows: emits (media_id, frame_idx)
    rows for frames 0, every, 2*every, ... of a declared frame count."""
    counts = batch["frame_count"].to_numpy()
    media_rows = np.repeat(np.arange(len(batch)), (counts + every - 1) // every)
    firsts = np.concatenate(([0], np.cumsum((counts + every - 1) // every)))[:-1]
    frame_idx = (np.arange(len(media_rows)) - np.repeat(firsts, (counts + every - 1) // every)) * every
    return pa.table({
        "media_id": batch["media_id"].take(pa.array(media_rows, pa.int64())),
        "frame_idx": pa.array(frame_idx, pa.int64()),
    })
