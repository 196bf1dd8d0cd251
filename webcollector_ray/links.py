"""Links — extracted URL collection.

Reference: model/Links.java. Extraction semantics:
- add_from_element: all `a[href]` absolute hrefs, plus `img[src]`
  absolute srcs when parse_img (:93-104);
- add_by_selector: hrefs (and optionally srcs) of elements matching a
  CSS selector (:114-132);
- add_by_regex: `a[href]` absolute hrefs satisfying a RegexRule, and
  when parse_src all `*[src]` absolute srcs too (:134-148) — this is
  the autoParse path (fetcher/VisitorMethodDispatcher.java:240-250);
- filter_by_regex (:76-91).

Kept as a thin list-like; the Ray parse stage consumes the resulting
lists and explodes them into link-segment rows.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Union

from .dom import Element, tokenize
from .regex_rule import RegexRule
from .urls import abs_url_fast


class Links:
    def __init__(self, links: Optional[Iterable[str]] = None):
        self._list: List[str] = []
        if links is not None:
            self.add(links)

    def add(self, item: Union[str, Iterable[str]]) -> "Links":
        if isinstance(item, str):
            self._list.append(item)
        else:
            self._list.extend(item)
        return self

    def filter_by_regex(self, rule: Union[RegexRule, str]) -> "Links":
        if isinstance(rule, str):
            rule = RegexRule([rule])
        self._list = [u for u in self._list if rule.satisfy(u)]
        return self

    def add_from_element(self, ele: Element, parse_img: bool = False) -> "Links":
        self.add(_abs_attrs(ele, "href", "a"))
        if parse_img:
            self.add(_abs_attrs(ele, "src", "img"))
        return self

    def add_by_selector(
        self, ele: Element, css_selector: str, parse_src: bool = False
    ) -> "Links":
        for a in ele.select(css_selector):
            if a.has_attr("href"):
                self.add(a.attr("abs:href"))
            if parse_src and a.has_attr("src"):
                self.add(a.attr("abs:src"))
        return self

    def add_by_regex(
        self,
        ele: Element,
        rule: Union[RegexRule, str],
        parse_src: bool = False,
    ) -> "Links":
        if isinstance(rule, str):
            rule = RegexRule([rule])
        satisfy = rule.satisfy
        self._list.extend(u for u in _abs_attrs(ele, "href", "a") if satisfy(u))
        if parse_src:
            self._list.extend(u for u in _abs_attrs(ele, "src") if satisfy(u))
        return self

    def __iter__(self) -> Iterator[str]:
        return iter(self._list)

    def __len__(self) -> int:
        return len(self._list)

    def __getitem__(self, i: int) -> str:
        return self._list[i]

    def is_empty(self) -> bool:
        return not self._list

    def __repr__(self) -> str:
        return f"Links({self._list!r})"


def _abs_attrs(ele: Element, name: str, tag: Optional[str] = None) -> List[str]:
    """`ele.select(f"{tag or '*'}[{name}]").each_attr(f"abs:{name}")` as
    one walk by tag: the value of `name`, resolved against the document
    base, for each element carrying it, in document order."""
    d = ele.doc()
    base = d.base_uri if d is not None else ""
    return [
        abs_url_fast(base, e.attrs[name])
        for e in ele.elements()
        if (tag is None or e.tag == tag) and name in e.attrs
    ]


def make_abs(doc, url: Optional[str] = None) -> None:
    """Rewrite every href/src attribute in the DOM to its absolute form
    (reference: util/JsoupUtils.java:31-56, X6 in SURVEY.md §2.7)."""
    if url is not None:
        doc.base_uri = url

    def head(node, _depth):
        if isinstance(node, Element):
            if node.has_attr("href"):
                node.attrs["href"] = node.abs_attr("href")
            if node.has_attr("src"):
                node.attrs["src"] = node.abs_attr("src")

    doc.traverse(head)


# ------------------------- vectorized autoParse fast path (no DOM) ---


class _FastLinkScan:
    """Collector of a[href] (and *[src]) attribute values over the
    event stream dom.parse builds its tree from (dom.tokenize: the
    regex tokenizer, html.parser as its fallback), with
    dom._TreeBuilder's attribute semantics (lowercase names, FIRST
    duplicate wins, valueless attr -> ''), but no tree build. Used by
    ExecuteStage's pure-autoParse fast path (VERDICT r2
    §wrong.4/§next.5): add_by_regex over the built DOM and this scan see
    the same tags in the same document order."""

    def __init__(self, parse_src: bool):
        self.hrefs: List[str] = []
        self.srcs: List[str] = []
        self._parse_src = parse_src

    def start(self, tag: str, attrs: dict, _self_closing: bool) -> None:
        if tag == "a" and "href" in attrs:
            self.hrefs.append(attrs["href"])
        # head attrs are dropped by the tree builder
        if self._parse_src and "src" in attrs and tag != "head":
            self.srcs.append(attrs["src"])

    def end(self, tag: str) -> None:
        pass

    def data(self, data: str) -> None:
        pass

    comment = decl = data


def fast_links_by_regex(
    html: str,
    base_uri: str,
    rule: RegexRule,
    parse_src: bool = False,
) -> List[str]:
    """Equivalent of Links().add_by_regex(dom.parse(html, base), rule,
    parse_src) without building the DOM: all a[href] abs-resolved and
    regex-filtered first, then (when parse_src) all *[src]."""
    scan = tokenize(html, lambda: _FastLinkScan(parse_src))
    out: List[str] = []
    for v in scan.hrefs:
        u = abs_url_fast(base_uri, v)
        if rule.satisfy(u):
            out.append(u)
    if parse_src:
        for v in scan.srcs:
            u = abs_url_fast(base_uri, v)
            if rule.satisfy(u):
                out.append(u)
    return out
