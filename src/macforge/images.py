"""8-bit binary PPM (P6) image files and bilinear resizing.

Images are channels-first float arrays (3, H, W) with values in [0, 1];
files quantize to 8 bits, so a written-then-read image is stable under
rewriting.
"""

import numpy as np

from .ioutil import FormatError, expect_eof, finite, read_exact
from .numeric import DimensionError

PPM_MAXVAL = 255


def write_ppm(path, image):
    """Quantize a (3, H, W) image in [0, 1] to a P6 file; values outside
    clip, and a NaN or infinite pixel is a FormatError before the file
    is opened."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[0] != 3:
        raise DimensionError(f"image must be (3, H, W), got {image.shape}")
    finite(image, f"PPM image {path}")
    quantized = np.clip(np.rint(image.astype(np.float64) * PPM_MAXVAL),
                        0, PPM_MAXVAL).astype(np.uint8)
    height, width = image.shape[1], image.shape[2]
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n{PPM_MAXVAL}\n".encode("ascii"))
        f.write(quantized.transpose(1, 2, 0).tobytes())


def _read_header_token(f):
    # skip whitespace and '#' comment lines between header fields
    token = b""
    while True:
        ch = f.read(1)
        if ch == b"":
            raise FormatError("PPM header truncated")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = f.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def read_ppm(path):
    """Read a P6 file into a float32 (3, H, W) array in [0, 1]."""
    with open(path, "rb") as f:
        magic = f.read(2)
        if magic != b"P6":
            raise FormatError(f"not a P6 PPM file (magic {magic!r})")
        fields = []
        for name in ("width", "height", "maxval"):
            token = _read_header_token(f)
            if not token.isdigit():
                raise FormatError(f"PPM {name} is not a number: {token!r}")
            fields.append(int(token))
        width, height, maxval = fields
        if width == 0 or height == 0:
            raise FormatError("PPM dimensions must be positive")
        if maxval != PPM_MAXVAL:
            raise FormatError(f"unsupported PPM maxval {maxval}")
        data = read_exact(f, width * height * 3, "PPM pixel data")
        expect_eof(f, "PPM")
    pixels = np.frombuffer(data, dtype=np.uint8)
    image = pixels.reshape(height, width, 3).transpose(2, 0, 1)
    return (image.astype(np.float32) / PPM_MAXVAL)


def resize_max_side(image, max_side):
    """Shrink so max(H, W) == max_side; smaller images pass through."""
    if max_side < 1:
        raise ValueError("max_side must be positive")
    image = np.asarray(image)
    if image.ndim != 3:
        raise DimensionError(f"image must be (C, H, W), got {image.shape}")
    height, width = image.shape[1], image.shape[2]
    longest = max(height, width)
    if longest <= max_side:
        return image
    scale = max_side / longest
    new_h = max(1, int(round(height * scale)))
    new_w = max(1, int(round(width * scale)))
    return _bilinear(image, new_h, new_w)


def _bilinear(image, new_h, new_w):
    height, width = image.shape[1], image.shape[2]
    src = image.astype(np.float64)

    def sample_axis(n_new, n_src):
        # map destination pixel centers back to source coordinates
        coords = (np.arange(n_new) + 0.5) * (n_src / n_new) - 0.5
        coords = np.clip(coords, 0.0, n_src - 1.0)
        lo = np.floor(coords).astype(int)
        hi = np.minimum(lo + 1, n_src - 1)
        frac = coords - lo
        return lo, hi, frac

    y0, y1, fy = sample_axis(new_h, height)
    x0, x1, fx = sample_axis(new_w, width)
    top = (src[:, y0][:, :, x0] * (1 - fx)
           + src[:, y0][:, :, x1] * fx)
    bottom = (src[:, y1][:, :, x0] * (1 - fx)
              + src[:, y1][:, :, x1] * fx)
    out = top * (1 - fy[None, :, None]) + bottom * fy[None, :, None]
    return out.astype(image.dtype)
