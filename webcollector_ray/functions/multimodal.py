"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are `binary` columns with a JSON meta column
(same convention as the frontier's meta, SURVEY.md §1.1). Each decode
stage has two kernels behind `DecodeStage(fake=...)`:

- fake=False: REAL decode via the pure-stdlib codecs in
  media_codecs.py — BMP / binary-PPM images, concatenated-P6 video
  streams, PCM WAV audio. Compressed formats (JPEG/PNG/H.264/MP3) need
  PIL/ffmpeg, absent in this container; the codec module raises a
  ValueError naming the seam where they plug in.
- fake=True: a deterministic md5-seeded pixel array per payload whose
  byte stream is re-derivable in SQL, so the driver oracles can pin the
  full pipeline without decoding binaries in DuckDB.

All stages are callable classes -> actor pools (decode state built once
per actor), batch_format="pyarrow" end-to-end, small batch sizes
because payload rows are wide.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional

import numpy as np
import pyarrow as pa

from webcollector_ray.functions import media_codecs

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),      # image | audio | video
        ("payload", pa.binary()),
        ("meta", pa.string()),      # JSON: {width, height, codec, ...}
    ]
)


_STREAM_MULT = np.uint64(0x9E3779B97F4A7C15)


def _seed64(s: str) -> int:
    """md5-derived 64-bit seed: little-endian first 8 digest bytes
    (= DuckDB's md5_number_upper, so the SQL oracle gets the same
    value)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def _hash_stream(seeds: np.ndarray, n: int) -> np.ndarray:
    """(len(seeds), n) uint64 matrix; element j of row i is
    ((seed_i + j + 1) * 0x9E3779B97F4A7C15) mod 2^64 — one wrap-around
    multiply per element, vectorized over the whole batch, and
    re-derivable in SQL via split multiplication (the fake kernels
    below feed the media_* driver oracles)."""
    j = np.arange(1, n + 1, dtype=np.uint64)
    return (seeds[:, None] + j[None, :]) * _STREAM_MULT


def _hash_bytes(seeds: np.ndarray, n: int) -> np.ndarray:
    """Top byte of each stream element -> (len(seeds), n) uint8."""
    return (_hash_stream(seeds, n) >> np.uint64(56)).astype(np.uint8)


class DecodeStage:
    """payload -> pixels (flattened) + shape columns.

    fake=False decodes the payload bytes for real (BMP / binary PPM via
    media_codecs) and emits each image's ACTUAL height/width; the
    `height`/`width` ctor args only shape the fake kernel. Payload rows
    decode one-by-one (variable-size binaries are inherently per-record
    work), but each decode is a numpy reshape — no per-pixel Python."""

    def __init__(self, fake: bool = False, height: int = 16, width: int = 16):
        self.fake = fake
        self.h = height
        self.w = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            pixels, hs, ws = [], [], []
            for p in batch["payload"].to_pylist():
                arr = media_codecs.decode_image(p)
                pixels.append(arr.reshape(-1))
                hs.append(arr.shape[0])
                ws.append(arr.shape[1])
            return pa.table(
                {
                    "media_id": batch["media_id"],
                    "pixels": pa.array(
                        [p.tolist() for p in pixels], pa.list_(pa.uint8())
                    ),
                    "height": pa.array(hs, pa.int32()),
                    "width": pa.array(ws, pa.int32()),
                }
            )
        seeds = np.array(
            [_seed64((p or b"").hex()) for p in batch["payload"].to_pylist()],
            dtype=np.uint64,
        )
        pix = _hash_bytes(seeds, self.h * self.w * 3)
        return pa.table(
            {
                "media_id": batch["media_id"],
                "pixels": pa.array([p.tolist() for p in pix], pa.list_(pa.uint8())),
                "height": pa.array([self.h] * len(seeds), pa.int32()),
                "width": pa.array([self.w] * len(seeds), pa.int32()),
            }
        )


class ResizeStage:
    """Average-pool decoded pixels to (out_h, out_w)."""

    def __init__(self, out_h: int = 4, out_w: int = 4):
        self.out_h = out_h
        self.out_w = out_w

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = []
        hs = batch["height"].to_pylist()
        ws = batch["width"].to_pylist()
        for px, h, w in zip(batch["pixels"].to_pylist(), hs, ws):
            arr = np.asarray(px, dtype=np.uint8).reshape(h, w, 3)
            fh, fw = h // self.out_h, w // self.out_w
            pooled = (
                arr[: fh * self.out_h, : fw * self.out_w]
                .reshape(self.out_h, fh, self.out_w, fw, 3)
                .mean(axis=(1, 3))
                .astype(np.uint8)
            )
            out.append(pooled.ravel().tolist())
        return pa.table(
            {
                "media_id": batch["media_id"],
                "pixels": pa.array(out, pa.list_(pa.uint8())),
                "height": pa.array([self.out_h] * len(out), pa.int32()),
                "width": pa.array([self.out_w] * len(out), pa.int32()),
            }
        )


class FeatureStage:
    """Per-channel mean/std feature vector from pixels."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = []
        hs = batch["height"].to_pylist()
        ws = batch["width"].to_pylist()
        for px, h, w in zip(batch["pixels"].to_pylist(), hs, ws):
            arr = np.asarray(px, dtype=np.float64).reshape(h, w, 3)
            feats.append(
                np.concatenate([arr.mean(axis=(0, 1)), arr.std(axis=(0, 1))]).tolist()
            )
        return pa.table(
            {
                "media_id": batch["media_id"],
                "features": pa.array(feats, pa.list_(pa.float64())),
            }
        )


class FrameSampleStage:
    """Video payload -> every k-th frame's pixels. fake=False decodes a
    concatenated-P6 frame stream (media_codecs.decode_ppm_stream, the
    ffmpeg image2pipe layout) and samples from the clip's ACTUAL frame
    count; the fake kernel derives a deterministic frame sequence from
    the payload digest. Actor-pool stage: one output row per sampled
    frame (flat-map shape)."""

    def __init__(self, fake: bool = False, num_frames: int = 8,
                 every: int = 4, height: int = 8, width: int = 8):
        self.fake = fake
        self.num_frames = num_frames
        self.every = every
        self.h = height
        self.w = width

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            ids, fidx, pixels, hs, ws = [], [], [], [], []
            for mid, payload in zip(
                batch["media_id"].to_pylist(), batch["payload"].to_pylist()
            ):
                frames = media_codecs.decode_ppm_stream(payload or b"")
                for f in range(0, len(frames), self.every):
                    arr = frames[f]
                    ids.append(mid)
                    fidx.append(f)
                    pixels.append(arr.reshape(-1).tolist())
                    hs.append(arr.shape[0])
                    ws.append(arr.shape[1])
            return pa.table(
                {
                    "media_id": pa.array(ids, pa.int64()),
                    "frame": pa.array(fidx, pa.int32()),
                    "pixels": pa.array(pixels, pa.list_(pa.uint8())),
                    "height": pa.array(hs, pa.int32()),
                    "width": pa.array(ws, pa.int32()),
                }
            )
        ids, frames, seeds = [], [], []
        for mid, payload in zip(
            batch["media_id"].to_pylist(), batch["payload"].to_pylist()
        ):
            for f in range(0, self.num_frames, self.every):
                ids.append(mid)
                frames.append(f)
                # frame seed: payload hex + 8-hex-char frame index
                seeds.append(_seed64((payload or b"").hex() + format(f, "08x")))
        pix = _hash_bytes(np.asarray(seeds, dtype=np.uint64), self.h * self.w * 3)
        pixels = [p.tolist() for p in pix]
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame": pa.array(frames, pa.int32()),
                "pixels": pa.array(pixels if ids else [], pa.list_(pa.uint8())),
                "height": pa.array([self.h] * len(ids), pa.int32()),
                "width": pa.array([self.w] * len(ids), pa.int32()),
            }
        )


class AudioFeatureStage:
    """Audio payload -> (duration_s, rms, zero_crossings). fake=False
    decodes real PCM WAV bytes (media_codecs.decode_wav; stdlib `wave`)
    at each clip's own sample rate / length; the fake kernel derives a
    deterministic waveform from the payload digest."""

    def __init__(self, fake: bool = False, sample_rate: int = 8000,
                 n_samples: int = 4096):
        self.fake = fake
        self.sr = sample_rate
        self.n = n_samples

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self.fake:
            durs, rms, zc = [], [], []
            for p in batch["payload"].to_pylist():
                x, sr = media_codecs.decode_wav(p or b"")
                durs.append(len(x) / sr if sr else 0.0)
                rms.append(float(np.sqrt((x**2).mean())) if len(x) else 0.0)
                neg = x < 0
                zc.append(int((neg[1:] != neg[:-1]).sum()))
            return pa.table(
                {
                    "media_id": batch["media_id"],
                    "duration_s": pa.array(durs, pa.float64()),
                    "rms": pa.array(rms, pa.float64()),
                    "zero_crossings": pa.array(zc, pa.int64()),
                }
            )
        seeds = np.array(
            [_seed64((p or b"").hex()) for p in batch["payload"].to_pylist()],
            dtype=np.uint64,
        )
        # uniform [-1, 1) samples from the hash stream (rows, n)
        u = _hash_stream(seeds, self.n).astype(np.float64) / 2.0**64
        wave = 2.0 * u - 1.0
        durs = [self.n / self.sr] * len(seeds)
        rms = np.sqrt((wave**2).mean(axis=1)).tolist()
        neg = wave < 0
        zc = (neg[:, 1:] != neg[:, :-1]).sum(axis=1).astype(np.int64).tolist()
        return pa.table(
            {
                "media_id": batch["media_id"],
                "duration_s": pa.array(durs, pa.float64()),
                "rms": pa.array(rms, pa.float64()),
                "zero_crossings": pa.array(zc, pa.int64()),
            }
        )


def synth_media_table(n: int = 32, kind: str = "image") -> pa.Table:
    """Deterministic fixture payloads."""
    ids = list(range(n))
    payloads = [hashlib.md5(f"media-{i}".encode()).digest() * 8 for i in ids]
    metas = [json.dumps({"codec": "fake", "i": i}) for i in ids]
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array([kind] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, pa.string()),
        },
        schema=MEDIA_SCHEMA,
    )


def _formula_pixels(i: int, h: int, w: int, frame: int = 0) -> np.ndarray:
    """(x*7 + y*13 + c*31 + i*17 + frame*29) % 256 — closed form so the
    DuckDB oracle can regenerate the exact pixels the real decoders
    produce, without decoding binaries in SQL."""
    y, x, c = np.meshgrid(
        np.arange(h), np.arange(w), np.arange(3), indexing="ij"
    )
    return ((x * 7 + y * 13 + c * 31 + i * 17 + frame * 29) % 256).astype(
        np.uint8
    )


def synth_real_media_table(
    n: int = 32,
    kind: str = "image",
    height: int = 16,
    width: int = 16,
    num_frames: int = 8,
    n_samples: int = 4096,
    sample_rate: int = 8000,
) -> pa.Table:
    """Byte-real fixture payloads: BMP images / concatenated-P6 video
    streams / 16-bit PCM WAVs, all from closed-form content (see
    _formula_pixels; audio sample j of clip i is
    ((j*2654435761 + i*40503) % 65536 - 32768) / 32768)."""
    payloads, metas = [], []
    for i in range(n):
        if kind == "image":
            payloads.append(
                media_codecs.encode_bmp(_formula_pixels(i, height, width))
            )
            metas.append(json.dumps({"codec": "bmp", "i": i}))
        elif kind == "video":
            frames = [
                _formula_pixels(i, height, width, frame=f)
                for f in range(num_frames)
            ]
            payloads.append(media_codecs.encode_ppm_stream(frames))
            metas.append(json.dumps({"codec": "ppm-stream", "i": i}))
        elif kind == "audio":
            j = np.arange(n_samples, dtype=np.int64)
            s = (j * 2654435761 + i * 40503) % 65536 - 32768
            payloads.append(
                media_codecs.encode_wav(
                    s.astype(np.float64) / 32768.0, sample_rate, sampwidth=2
                )
            )
            metas.append(json.dumps({"codec": "pcm16", "i": i}))
        else:
            raise ValueError(f"unknown kind {kind!r}")
    return pa.table(
        {
            "media_id": pa.array(list(range(n)), pa.int64()),
            "kind": pa.array([kind] * n, pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "meta": pa.array(metas, pa.string()),
        },
        schema=MEDIA_SCHEMA,
    )


def media_pipeline(ds, fake: bool = True, batch_size: int = 16,
                   concurrency: int = 2):
    """decode -> resize -> features, all actor pools."""
    return (
        ds.map_batches(
            DecodeStage,
            fn_constructor_kwargs=dict(fake=fake),
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
        .map_batches(
            ResizeStage,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
        .map_batches(
            FeatureStage,
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=concurrency,
        )
    )
