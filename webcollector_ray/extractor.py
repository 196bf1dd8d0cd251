"""CEPF news-content extraction (tag-path feature fusion).

Algorithm reproduced from the reference
contentextractor/ContentExtractor.java (526 LoC):

- clean(): drop script,noscript,style,iframe,br (:69-71)
- computeInfo(): bottom-up per element textCount / linkTextCount /
  tagCount / linkTagCount / leafList / density / densitySum / pCount
  (:73-120); density = (textCount-linkTextCount)/(tagCount-linkTagCount)
  with zero guards
- computeScore(tag) = log(sqrt(var(leafList)+1)) * densitySum
  * log(textCount-linkTextCount+1) * log10(pCount+2) (:122-127);
  var() of a single leaf is data[0] **integer-divided** by 2 (:133-135)
- content element = argmax score over elements except <a> and <body>
  (:149-169). The reference iterates a java.util.HashMap so its
  tie-break is nondeterministic; this port makes it deterministic:
  document order, first strict maximum wins.
- getTime/getDate: regex scan of outer HTML walking up 2 parents then
  6 ancestors (:200-260)
- getTitle: h1-h6 before the content element scored by
  position-weighted LCS similarity to doc.title() (:280-339), fallback
  *[id^=title]... selector with 5<len<40 guard, then best TextNode by
  similarity (:341-374)

Pure per-row function; the Ray stage wrapping it lives in
stages/extract.py.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import dom
from .dom import Document, Element, TextNode


@dataclass
class News:
    """contentextractor/News.java equivalent."""

    url: Optional[str] = None
    title: Optional[str] = None
    content: Optional[str] = None
    time: Optional[str] = None
    content_element: Optional[Element] = None


class _CountInfo:
    __slots__ = (
        "text_count",
        "link_text_count",
        "tag_count",
        "link_tag_count",
        "density",
        "density_sum",
        "p_count",
        "leaf_start",
        "leaf_end",
    )

    def __init__(self, leaf_start: int):
        self.text_count = 0
        self.link_text_count = 0
        self.tag_count = 0
        self.link_tag_count = 0
        self.density = 0.0
        self.density_sum = 0.0
        self.p_count = 0
        # the element's leafList: leaves[leaf_start:leaf_end], the
        # whitespace-normalised lengths of its text nodes in document order
        self.leaf_start = leaf_start
        self.leaf_end = leaf_start


_TIME_RE = re.compile(
    r"([1-2][0-9]{3})[^0-9]{1,5}?([0-1]?[0-9])[^0-9]{1,5}?([0-9]{1,2})"
    r"[^0-9]{1,5}?([0-2]?[1-9])[^0-9]{1,5}?([0-9]{1,2})[^0-9]{1,5}?([0-9]{1,2})"
)
_DATE_RE = re.compile(
    r"([1-2][0-9]{3})[^0-9]{1,5}?([0-1]?[0-9])[^0-9]{1,5}?([0-9]{1,2})"
)
_H_TAGS = frozenset(("h1", "h2", "h3", "h4", "h5", "h6"))


_CLEAN_TAGS = frozenset(("script", "noscript", "style", "iframe", "br"))


class ContentExtractor:
    def __init__(self, doc: Document):
        self.doc = doc
        self.info_map: Dict[int, _CountInfo] = {}
        self._elems: List[Element] = []  # post-order of scored elements
        self._leaves: List[int] = []  # see _CountInfo.leaf_start

    def _clean(self) -> None:
        # doc.select("script,noscript,style,iframe,br").remove(), as one
        # walk by tag: a removed element's subtree leaves with it
        stack = [self.doc]
        while stack:
            el = stack.pop()
            dirty = False
            for c in el.children:
                if type(c) is Element:
                    if c.tag in _CLEAN_TAGS:
                        dirty = True
                    elif c.children:
                        stack.append(c)
            if dirty:
                keep = []
                for c in el.children:
                    if type(c) is Element and c.tag in _CLEAN_TAGS:
                        c.parent = None
                    else:
                        keep.append(c)
                el.children = keep

    def _compute_info(self, root: Element) -> None:
        """computeInfo (:73-120) for root and every element under it, in
        one iterative post-order pass; each element's sums take its
        children in document order, as the reference's recursion does."""
        leaves = self._leaves
        info_map = self.info_map
        elems = self._elems
        normalised_len = dom.normalised_len
        root_info = _CountInfo(len(leaves))
        stack = [(root, root_info, iter(root.children))]
        while stack:
            el, info, it = stack[-1]
            for child in it:
                t = type(child)
                if t is TextNode:
                    n = normalised_len(child.raw)  # len(child.text())
                    info.text_count += n
                    leaves.append(n)
                elif t is Element:
                    ci = _CountInfo(len(leaves))
                    stack.append((child, ci, iter(child.children)))
                    break
            else:
                stack.pop()
                info.tag_count += 1
                if el.tag == "a":
                    info.link_text_count = info.text_count
                    info.link_tag_count += 1
                elif el.tag == "p":
                    info.p_count += 1
                pure_len = info.text_count - info.link_text_count
                n_tags = info.tag_count - info.link_tag_count
                info.density = (
                    0.0 if (pure_len == 0 or n_tags == 0) else pure_len / n_tags
                )
                info.leaf_end = len(leaves)
                info_map[id(el)] = info
                elems.append(el)
                if stack:
                    parent = stack[-1][1]
                    parent.text_count += info.text_count
                    parent.link_text_count += info.link_text_count
                    parent.tag_count += info.tag_count
                    parent.link_tag_count += info.link_tag_count
                    parent.density_sum += info.density
                    parent.p_count += info.p_count

    @staticmethod
    def _var(data: List[int]) -> float:
        if len(data) == 0:
            return 0.0
        if len(data) == 1:
            return float(data[0] // 2)  # Java int division (:133-135)
        ave = sum(data) / len(data)
        return sum((x - ave) ** 2 for x in data) / len(data)

    def _score(self, el: Element) -> float:
        info = self.info_map[id(el)]
        if info.density_sum == 0 or info.text_count == info.link_text_count:
            return 0.0  # a zero factor: never beats the running max
        var = math.sqrt(
            self._var(self._leaves[info.leaf_start:info.leaf_end]) + 1
        )
        return (
            math.log(var)
            * info.density_sum
            * math.log(info.text_count - info.link_text_count + 1)
            * math.log10(info.p_count + 2)
        )

    def get_content_element(self) -> Element:
        self._clean()
        body = self.doc.body()
        self._compute_info(body)
        max_score = 0.0
        content: Optional[Element] = None
        for el in self._elems:  # deterministic: document (post-order) walk
            if el.tag == "a" or el is body:
                continue
            score = self._score(el)
            if score > max_score:
                max_score = score
                content = el
        if content is None:
            raise ValueError("extraction failed")
        return content

    def get_news(self) -> News:
        news = News()
        content_element = self.get_content_element()
        news.content_element = content_element
        news.content = content_element.text()
        if self.doc.base_uri:
            news.url = self.doc.base_uri
        try:
            news.time = self._get_time(content_element)
        except ValueError:
            pass
        try:
            news.title = self._get_title(content_element)
        except ValueError:
            pass
        return news

    # ---- time/date (:200-260): climb 2 parents, then scan 6 ancestors ----
    def _scan_chain(self, content_element: Element) -> List[Element]:
        """The distinct elements the ancestor walk scans, innermost
        first: each is the parent of the one before."""
        body = self.doc.body()
        current: Optional[Element] = content_element
        for _ in range(2):
            if current is not None and current is not body:
                parent = current.parent
                if parent is not None:
                    current = parent
        chain: List[Element] = []
        for _ in range(6):
            if current is None:
                break
            if not chain or chain[-1] is not current:
                chain.append(current)
            if current is not body:
                current = current.parent
        return chain

    @staticmethod
    def _walk_scan(chain: List[Element], htmls: List[str],
                   pattern: re.Pattern, fmt) -> str:
        # The reference regex-scans each ancestor's re-serialised HTML
        # (:216). htmls[i] is chain[i].outer_html(), built on first use
        # by wrapping htmls[i - 1], and shared by the time and date walks.
        for i, el in enumerate(chain):
            if i == len(htmls):
                htmls.append(
                    el.outer_html() if i == 0
                    else el.outer_html_around(chain[i - 1], htmls[i - 1])
                )
            m = pattern.search(htmls[i])
            if m:
                return fmt(m)
        raise ValueError("not found")

    def _get_time(self, content_element: Element) -> str:
        chain = self._scan_chain(content_element)
        htmls: List[str] = []
        try:
            return self._walk_scan(
                chain,
                htmls,
                _TIME_RE,
                lambda m: f"{m.group(1)}-{m.group(2)}-{m.group(3)} "
                f"{m.group(4)}:{m.group(5)}:{m.group(6)}",
            )
        except ValueError:
            return self._walk_scan(
                chain,
                htmls,
                _DATE_RE,
                lambda m: f"{m.group(1)}-{m.group(2)}-{m.group(3)}",
            )

    # ---- title (:262-374) ----
    @staticmethod
    def _lcs(x: str, y: str) -> int:
        # LCS length (ContentExtractor.java:376-397 semantics), by the
        # bit-parallel recurrence of Allison & Dix (1986) / Hyyrö (2004):
        # bit i of v is 0 where row y[:k]'s DP value steps up at x[i], so
        # the LCS is the count of zero bits in the low len(x) bits.
        if not x or not y:
            return 0
        match: Dict[str, int] = {}
        for i, ch in enumerate(x):
            match[ch] = match.get(ch, 0) | (1 << i)
        mask = (1 << len(x)) - 1
        v = mask
        for ch in y:
            u = v & match.get(ch, 0)
            v = ((v + u) | (v - u)) & mask
        return len(x) - v.bit_count()

    @classmethod
    def _str_sim(cls, a: str, b: str) -> float:
        len1, len2 = len(a), len(b)
        if len1 == 0 or len2 == 0:
            return 0.0
        ratio = len1 / len2 if len1 > len2 else len2 / len1
        if ratio >= 3:
            return 0.0
        return cls._lcs(a, b) / max(len1, len2)

    def _get_title(self, content_element: Element) -> str:
        meta_title = self.doc.title().strip()
        if meta_title:
            title_list: List[Element] = []
            title_sim: List[float] = []
            index = 0
            for node in self.doc.body().elements():
                if node is content_element:
                    # the reference keeps traversing, but only titles
                    # before the content element matter
                    index = len(title_list)
                    break
                if node.tag in _H_TAGS:
                    title_sim.append(self._str_sim(node.text().strip(), meta_title))
                    title_list.append(node)
            if index > 0:
                max_score = 0.0
                max_index = -1
                for i in range(index):
                    score = (i + 1) * title_sim[i]
                    if score > max_score:
                        max_score = score
                        max_index = i
                if max_index != -1:
                    return title_list[max_index].text()

        # first of body.select("*[id^=title],*[id$=title],*[class^=title],
        # *[class$=title]")
        for el in self.doc.body().elements():
            if any(
                (v := el.attrs.get(k)) is not None
                and (v.startswith("title") or v.endswith("title"))
                for k in ("id", "class")
            ):
                title = el.text()
                if 5 < len(title) < 40:
                    return title
                break
        return self._get_title_by_text_sim(content_element)

    def _get_title_by_text_sim(self, _content_element: Element) -> str:
        meta_title = self.doc.title()
        best = 0.0
        best_text: Optional[str] = None
        for node in self.doc.body().descendants():
            if isinstance(node, TextNode):
                text = node.text().strip()
                sim = self._str_sim(text, meta_title)
                if sim > 0 and sim > best:
                    best = sim
                    best_text = text
        if best_text is not None:
            return best_text
        raise ValueError("title not found")


# ---- static API (ContentExtractor.java:436-512) ----

def get_content_element_by_html(html: str, url: str = "") -> Element:
    return ContentExtractor(dom.parse(html, url)).get_content_element()


def get_content_by_html(html: str, url: str = "") -> str:
    return get_content_element_by_html(html, url).text()


def get_news_by_html(html: str, url: str = "") -> News:
    return ContentExtractor(dom.parse(html, url)).get_news()
