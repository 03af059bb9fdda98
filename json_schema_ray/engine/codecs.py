"""REAL stdlib-only multimodal codecs: PNG (zlib + numpy) and WAV
PCM (wave + numpy). No PIL/torchaudio/ffmpeg — everything here is
RFC-2083 / RIFF parsing over the standard library, so the multimodal
pipeline stages in :mod:`multimodal` run genuine decode -> raster /
PCM -> feature/resize kernels in this sandbox instead of stubs.

Boundary: compressed formats whose codecs genuinely need external
libraries (JPEG, MP3, H.264 containers) still raise
``NotImplementedError`` through :func:`multimodal._missing_decoder`;
the mime dispatcher below routes what IS decodable.

Reference parity note (brandur/json_schema has no multimodal surface;
this implements the grafted pipeline requirement): decode stages are
actor-pool `map_batches` with small batch sizes — payload bytes
dominate worker memory, the schema/meta conventions live in
:mod:`multimodal`.
"""

from __future__ import annotations

import io
import struct
import wave
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_CHANNELS = {0: 1, 2: 3, 3: 1, 4: 2, 6: 4}  # color type -> samples/px


def encode_png(arr: np.ndarray) -> bytes:
    """Minimal RFC-2083 encoder for 8-bit grayscale/RGB/RGBA numpy
    rasters (H x W or H x W x {1,3,4}); scanlines use filter 0 so the
    decoder's fast path stays fully vectorized."""
    if arr.dtype != np.uint8:
        raise ValueError("encode_png expects uint8 rasters")
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    color = {1: 0, 3: 2, 4: 6}.get(c)
    if color is None:
        raise ValueError(f"unsupported channel count {c}")
    raw = np.concatenate(
        [np.zeros((h, 1), np.uint8),  # filter byte 0 per scanline
         arr.reshape(h, w * c)], axis=1).tobytes()

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload)))

    ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
    return (_PNG_SIG + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw, 6))
            + chunk(b"IEND", b""))


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa_ = np.abs(p - a)
    pb = np.abs(p - b)
    pc_ = np.abs(p - c)
    out = np.where((pa_ <= pb) & (pa_ <= pc_), a,
                   np.where(pb <= pc_, b, c))
    return out.astype(np.uint8)


def decode_png(payload: bytes) -> np.ndarray:
    """RFC-2083 decoder for 8-bit non-interlaced PNG: chunk walk,
    zlib inflate, scanline unfiltering (all five filter types).
    Filters 0/2 (None/Up) unfilter as whole-array numpy ops; 1/3/4
    (Sub/Average/Paeth) carry a left-neighbor dependency, so those
    scanlines walk pixels column-wise (vectorized DOWN the column
    batch of channels). Returns H x W x C uint8."""
    if payload[:8] != _PNG_SIG:
        raise ValueError("not a PNG (bad signature)")
    pos, idat, meta = 8, [], None
    while pos < len(payload):
        (ln,) = struct.unpack(">I", payload[pos:pos + 4])
        tag = payload[pos + 4:pos + 8]
        body = payload[pos + 8:pos + 8 + ln]
        pos += 12 + ln
        if tag == b"IHDR":
            w, h, depth, color, comp, filt, interlace = \
                struct.unpack(">IIBBBBB", body)
            if depth != 8 or interlace != 0 or color not in _CHANNELS:
                raise NotImplementedError(
                    f"PNG depth={depth} color={color} "
                    f"interlace={interlace} not supported")
            meta = (w, h, _CHANNELS[color])
        elif tag == b"IDAT":
            idat.append(body)
        elif tag == b"IEND":
            break
    if meta is None:
        raise ValueError("PNG missing IHDR")
    w, h, c = meta
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), np.uint8)
    stride = w * c + 1
    if len(raw) != h * stride:
        raise ValueError("PNG scanline payload size mismatch")
    rows = raw.reshape(h, stride)
    filters = rows[:, 0]
    data = rows[:, 1:].reshape(h, w, c)
    out = np.zeros_like(data)
    prior = np.zeros((w, c), np.uint8)
    for y in range(h):
        f = filters[y]
        line = data[y]
        if f == 0:
            cur = line.copy()
        elif f == 2:  # Up
            cur = (line.astype(np.int16) + prior).astype(np.uint8)
        elif f == 1:  # Sub
            cur = line.astype(np.int16).copy()
            for x in range(1, w):
                cur[x] = (cur[x] + cur[x - 1]) & 0xFF
            cur = cur.astype(np.uint8)
        elif f == 3:  # Average
            cur = np.zeros((w, c), np.int16)
            left = np.zeros(c, np.int16)
            for x in range(w):
                cur[x] = (line[x] + ((left + prior[x]) >> 1)) & 0xFF
                left = cur[x]
            cur = cur.astype(np.uint8)
        elif f == 4:  # Paeth
            cur = np.zeros((w, c), np.uint8)
            left = np.zeros(c, np.uint8)
            upleft = np.zeros(c, np.uint8)
            for x in range(w):
                pred = _paeth(left, prior[x], upleft)
                cur[x] = (line[x].astype(np.int16) + pred) & 0xFF
                left = cur[x]
                upleft = prior[x]
            cur = cur.astype(np.uint8)
        else:
            raise ValueError(f"bad PNG filter {f}")
        out[y] = cur
        prior = cur
    return out


def resize_nearest(arr: np.ndarray, width: int, height: int) -> np.ndarray:
    """Nearest-neighbor raster resize — pure index-grid gather, the
    same sample positions PIL uses for Image.NEAREST."""
    h, w = arr.shape[:2]
    ys = (np.arange(height) * h // height).clip(0, h - 1)
    xs = (np.arange(width) * w // width).clip(0, w - 1)
    return arr[ys][:, xs]


def png_resize(payload: bytes, width: int, height: int) -> bytes:
    """Real resize stage kernel: PNG decode -> nearest-neighbor
    gather -> PNG encode."""
    return encode_png(resize_nearest(decode_png(payload), width,
                                     height))


def png_image_features(payload: bytes, dim: int = 16) -> np.ndarray:
    """Real image feature kernel: decode to raster, emit a fixed
    ``dim``-float vector — width, height, channels, global mean/std/
    min/max, per-channel means (up to 4), and a 5-bin luminance
    histogram (density). Deterministic, vectorized numpy."""
    return raster_features(decode_png(payload), dim)


def raster_features(arr: np.ndarray, dim: int = 16) -> np.ndarray:
    """Feature kernel over an already-decoded H x W x C raster (see
    :func:`png_image_features` for the layout)."""
    a = arr.astype(np.float64)
    h, w, c = a.shape
    lum = a.mean(axis=2)
    hist, _ = np.histogram(lum, bins=5, range=(0.0, 255.0))
    chan = [a[:, :, i].mean() if i < c else 0.0 for i in range(4)]
    feats = np.array([
        float(w), float(h), float(c),
        a.mean(), a.std(), a.min(), a.max(),
        *chan,
        *(hist / lum.size),
    ], np.float64)
    if len(feats) < dim:
        feats = np.pad(feats, (0, dim - len(feats)))
    return feats[:dim]


def encode_wav(samples: np.ndarray, sample_rate: int = 16_000) -> bytes:
    """RIFF/WAVE PCM16 mono encoder via the stdlib wave module."""
    if samples.dtype != np.int16:
        raise ValueError("encode_wav expects int16 PCM")
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(sample_rate)
        wf.writeframes(samples.tobytes())
    return buf.getvalue()


def decode_wav(payload: bytes) -> tuple:
    """RIFF/WAVE PCM decoder via stdlib wave: (samples int16 numpy
    [n] or [n, channels], sample_rate)."""
    with wave.open(io.BytesIO(payload), "rb") as wf:
        if wf.getsampwidth() != 2:
            raise NotImplementedError("only PCM16 WAV supported")
        n = wf.getnframes()
        rate = wf.getframerate()
        ch = wf.getnchannels()
        pcm = np.frombuffer(wf.readframes(n), np.int16)
        if ch > 1:
            pcm = pcm.reshape(-1, ch)
    return pcm, rate


def wav_audio_features(payload: bytes, dim: int = 16) -> np.ndarray:
    """Real audio feature kernel: PCM decode -> duration, RMS, peak,
    zero-crossing rate, and a 4-band spectral energy split (numpy
    rFFT) — the classic lightweight audio-quality profile."""
    pcm, rate = decode_wav(payload)
    if pcm.ndim > 1:
        pcm = pcm.mean(axis=1)
    x = pcm.astype(np.float64) / 32768.0
    n = len(x)
    if n == 0:
        return np.zeros(dim)
    rms = float(np.sqrt(np.mean(x * x)))
    peak = float(np.abs(x).max())
    zcr = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
    spec = np.abs(np.fft.rfft(x)) ** 2
    total = spec.sum() or 1.0
    q = len(spec) // 4 or 1
    # the last band takes the tail (remainder + Nyquist bin) so the
    # four densities always sum to 1
    bands = [float(spec[i * q:((i + 1) * q if i < 3 else None)].sum()
                   / total) for i in range(4)]
    feats = np.array([float(n), float(rate), n / rate, rms, peak,
                      zcr, *bands], np.float64)
    if len(feats) < dim:
        feats = np.pad(feats, (0, dim - len(feats)))
    return feats[:dim]


def encode_y4m(frames: np.ndarray, fps: int = 25) -> bytes:
    """YUV4MPEG2 (Y4M) encoder for mono/C420 streams from a stack of
    luma rasters ``frames`` [n, h, w] uint8 — the uncompressed video
    interchange format ffmpeg/mjpegtools speak; chroma planes are
    written as neutral 128 (C420, h and w must be even) so any
    standard tool decodes these streams to gray video."""
    if frames.ndim != 3 or frames.dtype != np.uint8:
        raise ValueError("encode_y4m expects [n, h, w] uint8 luma")
    n, h, w = frames.shape
    if h % 2 or w % 2:
        raise ValueError("C420 needs even dimensions")
    head = f"YUV4MPEG2 W{w} H{h} F{fps}:1 Ip A1:1 C420\n".encode()
    chroma = np.full((h // 2) * (w // 2), 128, np.uint8).tobytes()
    parts = [head]
    for f in frames:
        parts.append(b"FRAME\n")
        parts.append(f.tobytes())
        parts.append(chroma)
        parts.append(chroma)
    return b"".join(parts)


def decode_y4m(payload: bytes) -> np.ndarray:
    """YUV4MPEG2 decoder (C420 / Cmono): parses the stream header
    and per-frame markers, returns the luma planes as [n, h, w]
    uint8 (chroma is skipped — the luma plane is what the sampling /
    feature stages consume)."""
    nl = payload.index(b"\n")
    head = payload[:nl].decode("ascii", "replace").split()
    if not head or head[0] != "YUV4MPEG2":
        raise ValueError("not a YUV4MPEG2 stream")
    w = h = None
    fmt = "C420"
    for tok in head[1:]:
        if tok.startswith("W"):
            w = int(tok[1:])
        elif tok.startswith("H"):
            h = int(tok[1:])
        elif tok.startswith("C"):
            fmt = tok
    if not w or not h:
        raise ValueError("Y4M header missing W/H")
    if fmt.startswith("C420"):
        chroma_len = 2 * ((h // 2) * (w // 2))
    elif fmt == "Cmono":
        chroma_len = 0
    else:
        raise NotImplementedError(f"Y4M chroma format {fmt}")
    pos = nl + 1
    frames = []
    luma_len = h * w
    while pos < len(payload):
        fe = payload.index(b"\n", pos)
        if payload[pos:pos + 5] != b"FRAME":
            raise ValueError("bad Y4M frame marker")
        pos = fe + 1
        frames.append(np.frombuffer(
            payload[pos:pos + luma_len], np.uint8).reshape(h, w))
        pos += luma_len + chroma_len
    return (np.stack(frames) if frames
            else np.zeros((0, h, w), np.uint8))


def y4m_luma_frames(payload: bytes, every_n: int) -> list:
    """REAL frame sampler for the :class:`multimodal.FrameSampler`
    stage: decode the Y4M stream, keep every n-th frame, return raw
    luma-plane bytes per kept frame."""
    frames = decode_y4m(payload)
    return [f.tobytes() for f in frames[::every_n]]
