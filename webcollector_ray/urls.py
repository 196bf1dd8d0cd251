"""URL utilities: absolute resolution, canonicalization, hashing, hosts.

- `abs_url` reproduces the reference's Jsoup `abs:href` / `new URL(base,
  loc)` idioms (model/Links.java:99-101; redirect resolution idiom
  example/DemoBingCrawler.java:74-85) via urllib.parse.urljoin.
- `canonicalize` + `url_hash_*` are the north_rule partitioning keys for
  the sharded seen filter and the merge shuffle — the *dedup key* itself
  stays the raw reference key (CrawlDatum.java:239-245); canonical form
  is only used for hashing/sharding so equal-modulo-noise URLs land in
  the same shard.
- `host_of` backs groupby(host) politeness routing.
"""

from __future__ import annotations

import hashlib
from urllib.parse import urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": ":80", "https": ":443"}


def abs_url(base: str, rel: str) -> str:
    """Resolve rel against base; '' for unresolvable (Jsoup absUrl)."""
    if rel is None:
        return ""
    rel = rel.strip()
    if not rel:
        return ""
    try:
        out = urljoin(base or "", rel)
    except ValueError:
        return ""
    # Jsoup returns "" when no base and the candidate is not absolute
    if "://" not in out.split("#", 1)[0].split("?", 1)[0] and not out.startswith("//"):
        return ""
    return out


import re as _re

# fast-resolution guards: base = plain http(s) URL without query or
# fragment; rel = plain path segments with no scheme/leading-slash/
# dot-segments (optionally ?query#fragment). Anything else falls back
# to urljoin.
_FAST_BASE_RE = _re.compile(r"^(https?://[^/?#]+)((?:/[^?#]*)?)$")
_FAST_REL_RE = _re.compile(
    r"^(?!\.{1,2}(?:[/?#]|$))[A-Za-z0-9._~%+,@\-]+"
    r"(?:/(?!\.{1,2}(?:[/?#]|$))[A-Za-z0-9._~%+,@\-]+)*/?(?:[?#].*)?$"
)


def abs_url_fast(base: str, rel: Optional[str]) -> str:
    """abs_url with a string-ops fast path for the two shapes that
    dominate crawl link resolution (plain relative path, absolute
    http(s) URL) — differential-tested against abs_url
    (test_abs_url_fast_matches_abs_url). Everything else delegates."""
    if rel is None:
        return ""
    r = rel.strip()
    if not r:
        return ""
    if r.startswith("http://") or r.startswith("https://"):
        # absolute http(s) rel with a clean path: urljoin returns it
        # verbatim when there is nothing to normalize
        m = _FAST_BASE_RE.match(r)
        if m and "//" not in m.group(2):
            return r
        return abs_url(base, rel)
    mb = _FAST_BASE_RE.match(base or "")
    if mb is None:
        return abs_url(base, rel)
    root, path = mb.group(1), mb.group(2)
    if "/./" in path or "/../" in path or path.endswith(("/.", "/..")):
        return abs_url(base, rel)  # urljoin normalizes the base's dots
    if r.startswith("/"):
        if r.startswith("//") or _FAST_REL_RE.match(r[1:]) is None:
            return abs_url(base, rel)
        return root + r
    if _FAST_REL_RE.match(r) is None:
        return abs_url(base, rel)
    base_dir = path[: path.rfind("/") + 1] if "/" in path else "/"
    return root + base_dir + r


def host_of(url: str) -> str:
    try:
        return urlsplit(url).netloc.lower()
    except ValueError:
        return ""


# authority component of a URL that HAS one: optional scheme, then //,
# netloc runs to the first of / ? # (RFC 3986 authority, what urlsplit
# calls netloc)
_NETLOC_RE = r"^(?:[a-zA-Z][a-zA-Z0-9+.\-]*:)?//([^/?#]*)"


def hosts_of_array(urls) -> "np.ndarray":
    """Vectorized host_of over an Arrow string array / pandas Series:
    one C-level regex extract instead of a per-row urlsplit loop
    (VERDICT r2 §wrong.3). Returns lowercase netlocs, '' where the URL
    carries no authority."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    if isinstance(urls, (pa.Array, pa.ChunkedArray)):
        s = urls.to_pandas()
    else:
        s = pd.Series(urls, dtype="object")
    if len(s) == 0:
        return np.array([], dtype=object)
    out = s.str.extract(_NETLOC_RE, expand=False).str.lower().fillna("")
    return out.to_numpy(dtype=object)


def canonicalize(url: str) -> str:
    """Light canonical form for hashing: lowercase scheme/host, strip
    default port and fragment, '' path -> '/'."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    dp = _DEFAULT_PORTS.get(scheme)
    if dp and netloc.endswith(dp):
        netloc = netloc[: -len(dp)]
    path = parts.path or "/"
    return urlunsplit((scheme, netloc, path, parts.query, ""))


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4: resolve '.' and '..' segments. On absolute
    paths '..' never climbs past the root ('/../y' -> '/y'); on
    relative paths (schemeless crawl-noise strings) 'x/../y' -> 'y'
    and unresolvable leading '..' segments are preserved. A trailing
    '.'/'..' leaves a trailing slash (the RFC's output behavior)."""
    segs = path.split("/")
    absolute = path.startswith("/")
    floor = 1 if absolute else 0  # keep the root sentinel '' segment
    out: list = []
    for s in segs:
        if s == ".":
            continue
        if s == "..":
            if len(out) > floor and out[-1] != "..":
                out.pop()
            elif not absolute:
                out.append("..")  # nothing left to climb: keep it
            continue
        out.append(s)
    if segs and segs[-1] in (".", "..") and (not out or out[-1] != ""):
        out.append("")
    joined = "/".join(out)
    return joined or ("/" if absolute else "")


def canonicalize_full(url: str) -> str:
    """Aggressive canonical form for URL-dedup CENSUSES (distinct from
    `canonicalize`, which stays light because it feeds the seen-filter
    partitioning): lowercase scheme+host, strip default port, RFC-3986
    dot-segment removal on the path, SORT query parameters (duplicate
    keys kept, ordered by the raw 'k=v' string), drop the fragment;
    empty path -> '/'. Pure per-record scalar (reference §2.7 X-family
    shape), applied batch-wise in map_batches."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return url
    scheme = parts.scheme.lower()
    netloc = parts.netloc.lower()
    dp = _DEFAULT_PORTS.get(scheme)
    if dp and netloc.endswith(dp):
        netloc = netloc[: -len(dp)]
    path = _remove_dot_segments(parts.path or "/")
    query = (
        "&".join(sorted(q for q in parts.query.split("&") if q))
        if parts.query else ""
    )
    return urlunsplit((scheme, netloc, path, query, ""))


def md5_hex(s: str) -> str:
    """util/MD5Utils.java:32-46 equivalent."""
    return hashlib.md5(s.encode("utf-8")).hexdigest()


def url_hash64(key: str) -> int:
    """Stable 63-bit hash of a key for partitioning (process-independent,
    unlike Python's salted hash())."""
    return int.from_bytes(
        hashlib.md5(key.encode("utf-8")).digest()[:8], "big"
    ) & 0x7FFF_FFFF_FFFF_FFFF
