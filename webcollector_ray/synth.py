"""Deterministic synthetic Common-Crawl-style page store.

Generates the `pages` table of BASELINE.json's input_hint shape
(url, warc_ts, html, text, lang) plus fixture extensions
(code, location, content_type) that model redirects/failures
(success-code semantics: plugin/net/OkHttpRequester.java:48-55).

The synthetic web is a deterministic link graph (FIXTURES.md F1):
per site `http://site{s}.test/`:

- list pages  `list-{i}.html`  (i in 0..L-1): link to `list-{i+1}`
  and to K show pages, plus off-regex noise links (.jpg, #fragment,
  relative, off-site) — RegexRule negative/positive cases
  (util/RegexRule.java:67-133) and abs-URL resolution cases
  (model/Links.java:99-101);
- show pages  `show-{j}.html`  (j in 0..L*K-1): CEPF-extractable
  article with title/h1/timestamp/body; `text` column carries the
  GOLDEN extracted text computed analytically from the same word
  stream (NOT by running the extractor — the pytest fixtures assert
  extractor(html) == text byte-identically);
- optional redirect rows `old-{m}.html` (301/302 + location) and
  failure rows `bad-{m}.html` (code 500 -> fetch FAILED -> retried,
  fetcher/Fetcher.java:257-266).

Everything is a pure function of (site, page-id) — no RNG state, no
wall clock — so the table can be generated shard-parallel inside Ray
tasks at any scale and two runs always agree.
"""

from __future__ import annotations

import hashlib
import re
from html import escape
from typing import Iterator, List, Optional

import pyarrow as pa

PAGES_FIXTURE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("ms")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
        ("code", pa.int32()),
        ("location", pa.string()),
        ("content_type", pa.string()),
    ]
)

_WORDS = (
    "the quick brown fox jumps over lazy dog while reporters gather "
    "facts about local events markets policy science culture sports "
    "weather traffic community schools council budget election debate "
    "researchers published findings yesterday morning evening analysts "
    "expect growth decline stable outlook regional national global"
).split()


def _h(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "big")


def _words(seed: str, n: int) -> List[str]:
    out = []
    x = _h(seed)
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & (2**64 - 1)
        out.append(_WORDS[(x >> 33) % len(_WORDS)])
    return out


def site_url(site: int) -> str:
    return f"http://site{site}.test"


def _ts_ms(site: int, idx: int) -> int:
    # deterministic warc_ts: 2024-01-01 + idx minutes + site hours
    return 1704067200000 + site * 3600_000 + idx * 60_000


class SynthSpec:
    """Shape parameters of the synthetic web."""

    def __init__(
        self,
        num_sites: int = 2,
        lists_per_site: int = 4,
        shows_per_list: int = 3,
        paragraphs_per_show: int = 3,
        words_per_paragraph: int = 40,
        redirects_per_site: int = 1,
        failures_per_site: int = 1,
        robots_rules: Optional[List[str]] = None,
    ):
        self.num_sites = num_sites
        self.lists_per_site = lists_per_site
        self.shows_per_list = shows_per_list
        self.paragraphs_per_show = paragraphs_per_show
        self.words_per_paragraph = words_per_paragraph
        self.redirects_per_site = redirects_per_site
        self.failures_per_site = failures_per_site
        # robots_rules: raw Allow/Disallow lines served at
        # /robots.txt on every site (None -> 404, allow-all)
        self.robots_rules = robots_rules

    @property
    def shows_per_site(self) -> int:
        return self.lists_per_site * self.shows_per_list

    @property
    def pages_per_site(self) -> int:
        return (
            self.lists_per_site
            + self.shows_per_site
            + self.redirects_per_site
            + self.failures_per_site
        )

    @property
    def total_pages(self) -> int:
        return self.num_sites * self.pages_per_site

    def seeds(self) -> List[str]:
        return [f"{site_url(s)}/list-0.html" for s in range(self.num_sites)]

    def encode(self, site: int, kind: str, idx: int) -> int:
        off = {"list": 0, "show": self.lists_per_site,
               "old": self.lists_per_site + self.shows_per_site,
               "bad": self.lists_per_site + self.shows_per_site
                      + self.redirects_per_site}[kind] + idx
        return site * self.pages_per_site + off

    # global page id <-> (site, kind, idx)
    def decode(self, gid: int):
        site, off = divmod(gid, self.pages_per_site)
        if off < self.lists_per_site:
            return site, "list", off
        off -= self.lists_per_site
        if off < self.shows_per_site:
            return site, "show", off
        off -= self.shows_per_site
        if off < self.redirects_per_site:
            return site, "old", off
        return site, "bad", off - self.redirects_per_site


def _article_paragraphs(spec: SynthSpec, site: int, j: int) -> List[str]:
    return [
        " ".join(_words(f"s{site}/show{j}/p{p}", spec.words_per_paragraph))
        for p in range(spec.paragraphs_per_show)
    ]


def article_title(site: int, j: int) -> str:
    return " ".join(w.capitalize() for w in _words(f"s{site}/show{j}/title", 5))


def article_time(site: int, j: int) -> str:
    day = 1 + (j % 27)
    hour = 11 + (j % 12)
    minute = 10 + (j % 49)
    sec = 11 + (j % 48)
    return f"2016-03-{day:02d} {hour:02d}:{minute:02d}:{sec:02d}"


def expected_show_text(spec: SynthSpec, site: int, j: int) -> str:
    """Golden CEPF text of show page j: the <div id=content> wraps only
    the <p> paragraphs, which are block elements, so Element.text()
    joins them with single spaces."""
    return " ".join(_article_paragraphs(spec, site, j))


def _show_html(spec: SynthSpec, site: int, j: int) -> str:
    base = site_url(site)
    title = article_title(site, j)
    paras = _article_paragraphs(spec, site, j)
    body = "\n".join(f"<p>{escape(p)}</p>" for p in paras)
    rel1 = (j + 1) % spec.shows_per_site
    rel2 = (j + 7) % spec.shows_per_site
    return f"""<html><head><title>{escape(title)} - Site{site} News</title>
<meta http-equiv="Content-Type" content="text/html; charset=utf-8">
</head><body>
<div id="nav"><a href="{base}/list-0.html">Home</a> <a href="/about.html">About</a></div>
<div class="article">
<h1>{escape(title)}</h1>
<span class="pubtime">{article_time(site, j)}</span>
<div id="content">
{body}
</div>
<div class="related"><a href="show-{rel1}.html">Related</a> <a href="show-{rel2}.html">More</a>
<a href="/img/banner-{j}.jpg">Banner</a></div>
</div>
<div id="footer"><script>var x=1;</script><a href="http://offsite.example/x">Partner</a></div>
</body></html>"""


def _list_html(spec: SynthSpec, site: int, i: int) -> str:
    base = site_url(site)
    items = []
    for k in range(spec.shows_per_list):
        j = i * spec.shows_per_list + k
        items.append(
            f'<li><a href="show-{j}.html">{escape(article_title(site, j))}</a></li>'
        )
    nxt = (
        f'<a href="list-{i + 1}.html">Next</a>'
        if i + 1 < spec.lists_per_site
        else ""
    )
    return f"""<html><head><title>Site{site} list {i}</title></head><body>
<div id="nav"><a href="{base}/list-0.html">Home</a> <a href="#top">Top</a>
<a href="/img/logo.png">logo</a></div>
<ul class="items">
{chr(10).join(items)}
</ul>
<div class="pager">{nxt}</div>
</body></html>"""


def page_row(spec: SynthSpec, gid: int, text: bool = True) -> dict:
    """The page row of global page id `gid`. `text=False` leaves the
    golden `text` column None: a fetch reads only the response fields,
    and the golden text regenerates the article's word stream."""
    site, kind, idx = spec.decode(gid)
    base = site_url(site)
    if kind == "list":
        url = f"{base}/list-{idx}.html"
        html = _list_html(spec, site, idx)
        return {
            "url": url,
            "warc_ts": _ts_ms(site, gid),
            "html": html.encode("utf-8"),
            "text": None,
            "lang": "en",
            "code": 200,
            "location": None,
            "content_type": "text/html; charset=utf-8",
        }
    if kind == "show":
        url = f"{base}/show-{idx}.html"
        html = _show_html(spec, site, idx)
        return {
            "url": url,
            "warc_ts": _ts_ms(site, gid),
            "html": html.encode("utf-8"),
            "text": expected_show_text(spec, site, idx) if text else None,
            "lang": "en",
            "code": 200,
            "location": None,
            "content_type": "text/html; charset=utf-8",
        }
    if kind == "old":
        # 301 to the site root list; 302 for odd idx
        return {
            "url": f"{base}/old-{idx}.html",
            "warc_ts": _ts_ms(site, gid),
            "html": b"",
            "text": None,
            "lang": "en",
            "code": 301 if idx % 2 == 0 else 302,
            "location": "/list-0.html" if idx % 2 == 0 else f"{base}/list-1.html",
            "content_type": None,
        }
    # kind == "bad": server error -> fetch FAILED
    return {
        "url": f"{base}/bad-{idx}.html",
        "warc_ts": _ts_ms(site, gid),
        "html": b"",
        "text": None,
        "lang": "en",
        "code": 500,
        "location": None,
        "content_type": None,
    }


_URL_RE = re.compile(r"^http://site(\d+)\.test/(list|show|old|bad)-(\d+)\.html$")

_KIND_MAX = {
    "list": "lists_per_site",
    "show": "shows_per_site",
    "old": "redirects_per_site",
    "bad": "failures_per_site",
}


_ROBOTS_RE = re.compile(r"^http://site(\d+)\.test/robots\.txt$")


def row_for_url(spec: SynthSpec, url: str, text: bool = True) -> Optional[dict]:
    """Regenerate the page row for a URL on demand (None = 404/no
    route). Pure function of (spec, url): lets a fetch stage serve the
    synthetic web with ZERO stored bytes — the bench-scale page store.
    `text` as in page_row."""
    rm = _ROBOTS_RE.match(url)
    if rm is not None:
        site = int(rm.group(1))
        if site >= spec.num_sites or spec.robots_rules is None:
            return None
        body = "User-agent: *\n" + "\n".join(spec.robots_rules) + "\n"
        return {
            "url": url,
            "warc_ts": _ts_ms(site, 0),
            "html": body.encode("utf-8"),
            "text": None,
            "lang": "en",
            "code": 200,
            "location": None,
            "content_type": "text/plain",
        }
    m = _URL_RE.match(url)
    if not m:
        return None
    site, kind, idx = int(m.group(1)), m.group(2), int(m.group(3))
    if site >= spec.num_sites or idx >= getattr(spec, _KIND_MAX[kind]):
        return None
    return page_row(spec, spec.encode(site, kind, idx), text)


def rows_to_table(rows: List[dict]) -> pa.Table:
    cols = {
        name: [r[name] for r in rows] for name in PAGES_FIXTURE_SCHEMA.names
    }
    return pa.table(cols, schema=PAGES_FIXTURE_SCHEMA)


def synth_pages_table(spec: Optional[SynthSpec] = None) -> pa.Table:
    """Materialize the whole synthetic web (tests / small fixtures)."""
    spec = spec or SynthSpec()
    return rows_to_table([page_row(spec, g) for g in range(spec.total_pages)])


def spec_for_scale(n_docs: int) -> SynthSpec:
    """Scale the synthetic web off a driver table's row count, so crawl
    queries grow with sf: ~1 site per 100 documents."""
    num_sites = max(2, n_docs // 100)
    return SynthSpec(num_sites=num_sites, lists_per_site=4, shows_per_list=3)
