"""Minimal HTML DOM with Jsoup-compatible semantics.

The reference relies on Jsoup (model/Page.java:403-416 `doc()`,
model/Links.java link extraction, contentextractor/ContentExtractor.java
CEPF scoring) — none of the Python HTML parser libraries are available
in this environment, so this module implements the needed subset:

- one tokenizer for every consumer (`tokenize`: the tree builder here,
  links.fast_links_by_regex's no-DOM link scan): a compiled master
  regex over a strict grammar (text, start tags with quoted, bare or
  valueless attributes and `/>`, end tags, comments, DOCTYPE,
  processing instructions, raw script/style bodies, entities decoded by
  html.unescape). A document holding anything outside that grammar is
  re-tokenized whole by html.parser, whose event stream is the
  reference semantics: both paths give the same events, so `parse`
  builds the same tree for every input;
- html/head/body normalization, void elements, basic auto-closing
  (p/li/tr/td/dt/dd/option), entity decoding;
- Jsoup-style whitespace-normalized `text()` (block-tag and <br>
  spacing, StringUtil.normaliseWhitespace semantics) — the byte-identical
  extracted-text invariant is defined against THIS text();
- a CSS selector subset: tag, *, #id, .class, [attr], [attr=v],
  [attr^=v], [attr$=v], [attr*=v], descendant / child / adjacent (+) /
  general (~) sibling combinators, selector groups, and the Jsoup
  pseudo-classes :eq(n) / :lt(n) / :gt(n) (element sibling index,
  Jsoup Evaluator.IndexEquals semantics), :first-child / :last-child /
  :nth-child(an+b|odd|even), :contains(text), :not(sel), :has(sel) —
  covering every selector the reference uses
  (ContentExtractor.java:70,326; Links.java:93-148; Page.java:274-285)
  plus the first-hit user extensions beyond it;
- `abs:` attribute resolution against the document base URI
  (Jsoup absUrl; model/Links.java:99-101);
- compact `outer_html()` (no pretty-print; the reference's use is regex
  scanning for timestamps, ContentExtractor.java:216).

Comments are kept as CommentNode (in `outer_html()`, invisible to
`text()` and selectors — Jsoup Comment semantics); the doctype is kept
on `Document.doctype` and re-emitted by `Document.outer_html()`.
"""

from __future__ import annotations

import re
from html import escape, unescape
from html.parser import HTMLParser
from typing import Callable, Iterator, List, Optional

from .urls import abs_url

VOID_TAGS = frozenset(
    "area base br col embed hr img input keygen link meta param source track wbr".split()
)

# Jsoup Tag.isBlock set (subset: the tags that matter for text() spacing)
BLOCK_TAGS = frozenset(
    (
        "html head body frameset script noscript style meta link title frame "
        "noframes section nav aside hgroup header footer p h1 h2 h3 h4 h5 h6 "
        "ul ol pre div blockquote hr address figure figcaption form fieldset "
        "ins del dl dt dd li table caption thead tfoot tbody colgroup col tr "
        "th td video audio canvas details menu plaintext template article "
        "main center output dir applet marquee listing"
    ).split()
)

_WS_RUN = re.compile(r"[ \t\n\f\r]+")
# tags whose start implicitly closes an open <p> (HTML5 spec subset)
_P_CLOSERS = frozenset(
    (
        "address article aside blockquote details div dl fieldset figcaption "
        "figure footer form h1 h2 h3 h4 h5 h6 header hr main menu nav ol p "
        "pre section table ul"
    ).split()
)
_SELF_CLOSERS = {
    "li": ("li",),
    "tr": ("tr",),
    "td": ("td", "th"),
    "th": ("td", "th"),
    "dd": ("dd", "dt"),
    "dt": ("dd", "dt"),
    "option": ("option",),
}
_HEAD_TAGS = frozenset("title meta link base style".split())
_AUTOCLOSERS = _P_CLOSERS | frozenset(_SELF_CLOSERS)


def normalise_whitespace(s: str) -> str:
    """Jsoup StringUtil.normaliseWhitespace: collapse whitespace runs to a
    single space (leading/trailing runs become a single space, NOT trimmed)."""
    return _WS_RUN.sub(" ", s)


def normalised_len(s: str) -> int:
    """len(normalise_whitespace(s)), without building the string when
    no run can collapse: only a run of two or more whitespace chars, or
    one that is not " ", changes the length."""
    if "  " in s or "\n" in s or "\t" in s or "\r" in s or "\f" in s:
        return len(_WS_RUN.sub(" ", s))
    return len(s)


class Node:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: Optional[Element] = None


class TextNode(Node):
    __slots__ = ("raw",)

    def __init__(self, raw: str):
        self.parent = None
        self.raw = raw

    def text(self) -> str:
        # Jsoup TextNode.text() = normaliseWhitespace(getWholeText())
        return normalise_whitespace(self.raw)

    def whole_text(self) -> str:
        return self.raw

    def __repr__(self):
        return f"TextNode({self.raw!r})"


class CommentNode(Node):
    """Jsoup Comment node: kept in the tree and in html() output
    (Comment.outerHtmlHead emits ``<!--data-->``) but invisible to
    Element.text() — the reference's timestamp regex scans
    ``outer_html()`` (contentextractor/ContentExtractor.java:216), so a
    date inside an HTML comment must stay findable."""

    __slots__ = ("raw",)

    def __init__(self, raw: str):
        super().__init__()
        self.raw = raw

    def __repr__(self):
        return f"CommentNode({self.raw!r})"


class Element(Node):
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: Optional[dict] = None):
        self.parent = None
        self.tag = tag
        self.attrs: dict = attrs or {}
        self.children: List[Node] = []

    # --- tree ---
    def append(self, node: Node) -> None:
        node.parent = self
        self.children.append(node)

    def remove(self) -> None:
        if self.parent is not None:
            self.parent.children.remove(self)
            self.parent = None

    def child_elements(self) -> List["Element"]:
        return [c for c in self.children if isinstance(c, Element)]

    def descendants(self) -> Iterator[Node]:
        # iterative document-order walk: nested `yield from` recursion
        # costs one generator frame per ancestor per yielded node, which
        # dominates selector/extractor profiles on deep trees
        stack = [iter(self.children)]
        while stack:
            for c in stack[-1]:
                yield c
                if isinstance(c, Element) and c.children:
                    stack.append(iter(c.children))
                    break
            else:
                stack.pop()

    def elements(self) -> Iterator["Element"]:
        """This element (unless it is the Document) and every descendant
        element, in document order: the candidates `select` tests."""
        if not isinstance(self, Document):
            yield self
        stack = [iter(self.children)]
        while stack:
            for c in stack[-1]:
                if isinstance(c, Element):
                    yield c
                    if c.children:
                        stack.append(iter(c.children))
                        break
            else:
                stack.pop()

    def traverse(self, head: Callable[[Node, int], None], depth: int = 0) -> None:
        """Head-order node visitor (Jsoup NodeTraversor.head equivalent)."""
        head(self, depth)
        for c in list(self.children):
            if isinstance(c, Element):
                c.traverse(head, depth + 1)
            else:
                head(c, depth + 1)

    def doc(self) -> Optional["Document"]:
        n: Optional[Node] = self
        while n is not None:
            if isinstance(n, Document):
                return n
            n = n.parent
        return None

    # --- attributes ---
    def attr(self, name: str) -> str:
        if name.startswith("abs:"):
            return self.abs_attr(name[4:])
        return self.attrs.get(name.lower(), "")

    def has_attr(self, name: str) -> bool:
        return name.lower() in self.attrs

    def abs_attr(self, name: str) -> str:
        v = self.attrs.get(name.lower(), "")
        if not v:
            return ""
        d = self.doc()
        base = d.base_uri if d is not None else ""
        return abs_url(base, v)

    def id(self) -> str:
        return self.attrs.get("id", "")

    def class_names(self) -> List[str]:
        return self.attrs.get("class", "").split()

    # --- text (Jsoup Element.text() semantics) ---
    def text(self) -> str:
        parts: List[str] = []

        def last_is_space() -> bool:
            return bool(parts) and parts[-1].endswith(" ")

        def walk(el: Element) -> None:
            for c in el.children:
                if isinstance(c, TextNode):
                    t = normalise_whitespace(c.raw)
                    if t.startswith(" ") and (not parts or last_is_space()):
                        t = t[1:]
                    if t:
                        parts.append(t)
                elif isinstance(c, Element):
                    if c.tag in ("script", "style"):
                        # Jsoup: script/style contents are DataNodes,
                        # excluded from Element.text()
                        continue
                    if parts and (c.tag in BLOCK_TAGS or c.tag == "br") and not last_is_space():
                        parts.append(" ")
                    walk(c)

        walk(self)
        return "".join(parts).strip()

    def own_text(self) -> str:
        out = normalise_whitespace(
            "".join(c.raw for c in self.children if isinstance(c, TextNode))
        )
        return out.strip()

    # --- serialization ---
    def outer_html(self) -> str:
        buf: List[str] = []
        self._html(buf)
        return "".join(buf)

    def inner_html(self) -> str:
        buf: List[str] = []
        for c in self.children:
            _node_html(c, buf)
        return "".join(buf)

    def outer_html_around(self, child: Node, child_html: str) -> str:
        """outer_html(), given `child_html`, the outer_html() of one of
        this element's children: an ancestor walk serialises each node
        once."""
        buf: List[str] = []
        self._html(buf, child, child_html)
        return "".join(buf)

    def _html(self, buf: List[str], child: Optional[Node] = None,
              child_html: str = "") -> None:
        buf.append("<")
        buf.append(self.tag)
        for k, v in self.attrs.items():
            buf.append(f' {k}="{escape(v, quote=True)}"')
        buf.append(">")
        if self.tag in VOID_TAGS:
            return
        for c in self.children:
            if c is child:
                buf.append(child_html)
            else:
                _node_html(c, buf)
        buf.append(f"</{self.tag}>")

    # --- select ---
    def select(self, css: str) -> "Elements":
        return Elements(_select(self, css))

    def select_first(self, css: str) -> Optional["Element"]:
        r = _select(self, css)
        return r[0] if r else None

    def __repr__(self):
        return f"<{self.tag} {self.attrs}>({len(self.children)} children)"


def _node_html(c: Node, buf: List[str]) -> None:
    if isinstance(c, Element):
        c._html(buf)
    elif isinstance(c, TextNode):
        raw = c.raw  # escape(raw, quote=False) only when it changes raw
        buf.append(
            escape(raw, quote=False)
            if "&" in raw or "<" in raw or ">" in raw else raw
        )
    elif isinstance(c, CommentNode):
        buf.append(f"<!--{c.raw}-->")


class Elements(list):
    """Jsoup Elements subset: each_attr / first / remove / text."""

    def each_attr(self, name: str) -> List[str]:
        # Jsoup eachAttr collects only non-empty... actually it collects
        # attr values for elements that HAVE the attribute; abs: resolution
        # may still yield "".
        key = name[4:] if name.startswith("abs:") else name
        return [e.attr(name) for e in self if e.has_attr(key)]

    def first(self) -> Optional[Element]:
        return self[0] if self else None

    def remove(self) -> None:
        for e in self:
            e.remove()

    def text(self) -> str:
        return " ".join(e.text() for e in self)

    def attr(self, name: str) -> str:
        for e in self:
            key = name[4:] if name.startswith("abs:") else name
            if e.has_attr(key):
                return e.attr(name)
        return ""


class Document(Element):
    __slots__ = ("base_uri", "doctype")

    def __init__(self, base_uri: str = ""):
        super().__init__("#document")
        self.base_uri = base_uri
        self.doctype: str = ""  # raw decl text, e.g. "DOCTYPE html"

    def _html(self, buf: List[str], child: Optional[Node] = None,
              child_html: str = "") -> None:
        # serialize without the synthetic #document wrapper (Jsoup
        # Document.outerHtml = doctype + children)
        if self.doctype:
            buf.append(f"<!{self.doctype}>")
        for c in self.children:
            if c is child:
                buf.append(child_html)
            else:
                _node_html(c, buf)

    def html_el(self) -> Element:
        for c in self.child_elements():
            if c.tag == "html":
                return c
        raise ValueError("no html element")

    def head(self) -> Element:
        for c in self.html_el().child_elements():
            if c.tag == "head":
                return c
        raise ValueError("no head")

    def body(self) -> Element:
        for c in self.html_el().child_elements():
            if c.tag == "body":
                return c
        raise ValueError("no body")

    def title(self) -> str:
        for t in self.elements():
            if t.tag == "title":
                return t.text().strip()
        return ""


# ---------------------------------------------------------------- parser


class _TreeBuilder:
    """Tree construction from a tag/text event stream. Both tokenizers
    below feed it the same events: `start(tag, attrs, self_closing)`
    with a lowercase tag and a first-wins {lowercase name: value}
    dict (a valueless attribute has value ""), `end(tag)`,
    `data(text)` with entities decoded outside script/style,
    `comment(text)` and `decl(text)`."""

    def __init__(self, base_uri: str = ""):
        self.doc = Document(base_uri)
        self.html = Element("html")
        self.doc.append(self.html)
        self.head_el = Element("head")
        self.html.append(self.head_el)
        self.body_el = Element("body")
        self.html.append(self.body_el)
        self.stack: List[Element] = []  # open elements under head/body
        self.in_body = False

    def _cur(self) -> Element:
        if self.stack:
            return self.stack[-1]
        return self.body_el if self.in_body else self.head_el

    def _autoclose(self, tag: str) -> None:
        if not self.stack:
            return
        top = self.stack[-1].tag
        if tag in _P_CLOSERS and top == "p":
            self.stack.pop()
        closers = _SELF_CLOSERS.get(tag)
        if closers and self.stack and self.stack[-1].tag in closers:
            self.stack.pop()

    def start(self, tag: str, attrs: dict, self_closing: bool) -> None:
        if tag == "html" or tag == "body":
            if tag == "body":
                self.in_body = True
            target = self.html.attrs if tag == "html" else self.body_el.attrs
            for k, v in attrs.items():
                target.setdefault(k, v)
            return
        if tag == "head":
            return
        if not self.in_body and tag not in _HEAD_TAGS:
            self.in_body = True
        if tag in _AUTOCLOSERS:
            self._autoclose(tag)
        el = Element(tag, attrs)
        cur = self._cur()
        el.parent = cur
        cur.children.append(el)
        if tag not in VOID_TAGS and not self_closing:
            self.stack.append(el)

    def end(self, tag: str) -> None:
        if tag == "html" or tag == "body":
            return
        if tag == "head":
            self.in_body = True
            return
        stack = self.stack
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].tag == tag:
                del stack[i:]
                return
        # unmatched end tag: ignore

    def comment(self, data: str) -> None:
        # comments never flip head->body (they are metadata-transparent)
        if not self.stack and not self.in_body:
            self.head_el.append(CommentNode(data))
        else:
            self._cur().append(CommentNode(data))

    def decl(self, decl: str) -> None:
        if decl.strip().lower().startswith("doctype"):
            self.doc.doctype = decl

    def data(self, data: str) -> None:
        if self.stack:
            cur = self.stack[-1]
        elif self.in_body:
            cur = self.body_el
            if not cur.children and not data.strip():
                return
        else:
            # structural whitespace before/inside head
            if data.strip():
                self.in_body = True
                self.body_el.append(TextNode(data))
            return  # drop whitespace directly in head
        node = TextNode(data)
        node.parent = cur
        cur.children.append(node)


# One token of the strict grammar the fast tokenizer accepts. Every
# construct it matches, html.parser (convert_charrefs=True, the whole
# document fed at once) reads as the same single event with the same
# text-chunk boundaries; anything else makes `_tokenize` give up.
# Whitespace inside tags is ASCII only, since html.parser's tag-name
# rule stops at [\t\n\r\f /] but its attribute rules at any \s.
_WS = r"[ \t\n\r\f]"


def _attr_pattern(g: str) -> str:
    """One attribute: name, then optionally = and a double-quoted,
    single-quoted or bare value. `g` opens the name and value groups:
    "(" to capture them, "(?:" not to."""
    return (
        g + r"[a-zA-Z_:@][-a-zA-Z0-9_:.@]*+)"
        r"(?:" + _WS + r"*+=" + _WS + r"*+"
        r'(?:"' + g + r'[^"]*+)"'
        r"|'" + g + r"[^']*+)'"
        r"|" + g + r"""[^\s>"'=][^\s>]*+)))?"""
    )


_TOKEN = re.compile(
    r"([^<]++)"  # 1 text
    r"|<([a-zA-Z][-a-zA-Z0-9]*+)"  # 2 start tag name
    r"((?:" + _WS + r"++" + _attr_pattern("(?:") + r")*+)"  # 3 attributes
    + _WS + r"*+(/?)>"  # 4 the "/" of "/>"
    r"|</([a-zA-Z][-.a-zA-Z0-9:_]*+)" + _WS + r"*+>"  # 5 end tag
    r"|<!--([\s\S]*?)--\s*>"  # 6 comment
    r"|<!([dD][oO][cC][tT][yY][pP][eE][^>]*+)>"  # 7 doctype
    r"|<\?[^>]*+>"  # processing instruction: no event
    r"|<(?![a-zA-Z/!?])"  # a "<" that opens nothing: text "<"
)
_ATTR_RE = re.compile(_WS + r"++" + _attr_pattern("("))
# html.parser's end of a script/style body (HTMLParser.set_cdata_mode)
_RAW_END = {
    t: re.compile(r"</\s*%s\s*>" % t, re.I) for t in ("script", "style")
}


def _tokenize(html: str, sink) -> bool:
    """Feed `html` to `sink` as html.parser's event stream. Returns
    False, part-way, at the first byte outside the grammar; the caller
    then starts over on `_tokenize_reference` with a fresh sink."""
    start, end, data = sink.start, sink.end, sink.data
    n = len(html)
    pos = 0
    scan = _TOKEN.scanner(html).match
    while pos < n:
        m = scan()
        if m is None:
            return False
        pos = m.end()
        k = m.lastindex
        if k == 1:
            text = m[1]
            data(unescape(text) if "&" in text else text)
        elif k == 4:
            tag = m[2].lower()
            attrs: dict = {}
            if m[3]:
                for name, dq, sq, bare in _ATTR_RE.findall(m[3]):
                    name = name.lower()
                    if name not in attrs:
                        v = dq or sq or bare
                        attrs[name] = unescape(v) if "&" in v else v
            closed = m[4] == "/"
            start(tag, attrs, closed)
            if tag in _RAW_END and not closed:
                # raw text up to html.parser's end-tag rule; a case-folded
                # non-ASCII match (U+017F for "s") is no end tag to
                # html.parser's endtagfind, so leave that one to it
                e = _RAW_END[tag].search(html, pos)
                if e is None or not e.group().isascii():
                    return False
                if e.start() > pos:
                    data(html[pos:e.start()])
                end(tag)
                pos = e.end()
                scan = _TOKEN.scanner(html, pos).match
        elif k == 5:
            end(m[5].lower())
        elif k == 6:
            sink.comment(m[6])
        elif k == 7:
            sink.decl(m[7])
        elif m[0] == "<":
            data("<")
    return True


class _ReferenceTokenizer(HTMLParser):
    """html.parser driving a sink: the reference semantics, and the
    fallback for documents outside `_TOKEN`'s grammar."""

    def __init__(self, sink):
        super().__init__(convert_charrefs=True)
        self._sink = sink

    @staticmethod
    def _attrs(attrs) -> dict:
        out: dict = {}
        for k, v in attrs:
            k = k.lower()
            if k not in out:
                out[k] = v if v is not None else ""
        return out

    def handle_starttag(self, tag, attrs):
        self._sink.start(tag.lower(), self._attrs(attrs), False)

    def handle_startendtag(self, tag, attrs):
        self._sink.start(tag.lower(), self._attrs(attrs), True)

    def handle_endtag(self, tag):
        self._sink.end(tag.lower())

    def handle_data(self, data):
        self._sink.data(data)

    def handle_comment(self, data):
        self._sink.comment(data)

    def handle_decl(self, decl):
        self._sink.decl(decl)


def _tokenize_reference(html: str, sink) -> None:
    p = _ReferenceTokenizer(sink)
    p.feed(html)
    p.close()


def tokenize(html: str, new_sink: Callable[[], object]):
    """Run a fresh `new_sink()` over `html`'s event stream: the fast
    tokenizer, or html.parser when the document leaves its grammar.
    Returns the sink that saw the whole document."""
    sink = new_sink()
    if _tokenize(html, sink):
        return sink
    sink = new_sink()
    _tokenize_reference(html, sink)
    return sink


def parse(html: str, base_uri: str = "") -> Document:
    return tokenize(html or "", lambda: _TreeBuilder(base_uri)).doc


def parse_fast(html: str, base_uri: str = "") -> Optional[Document]:
    """The fast tokenizer's tree, or None when it rejects the document."""
    tb = _TreeBuilder(base_uri)
    return tb.doc if _tokenize(html or "", tb) else None


def parse_reference(html: str, base_uri: str = "") -> Document:
    """The tree html.parser's event stream builds."""
    tb = _TreeBuilder(base_uri)
    _tokenize_reference(html or "", tb)
    return tb.doc


# ---------------------------------------------------------- CSS selector

_SIMPLE_RE = re.compile(
    r"""
    (?P<tag>\*|[a-zA-Z][a-zA-Z0-9-]*)
    | \#(?P<id>[\w-]+)
    | \.(?P<cls>[\w-]+)
    | \[(?P<attr>[\w-]+)(?:(?P<op>[\^\$\*]?=)(?P<q>["']?)(?P<val>[^\]"']*)(?P=q))?\]
    | :(?P<pseudo>[a-zA-Z][a-zA-Z-]*)(?:\((?P<parg>[^()]*(?:\([^()]*\)[^()]*)*)\))?
    """,
    re.VERBOSE,
)

_NTH_RE = re.compile(r"^\s*(?:(?P<a>[+-]?\d*)n\s*(?P<b>[+-]\s*\d+)?|(?P<c>[+-]?\d+))\s*$")


def _sibling_index(el: Element) -> int:
    """0-based index among element siblings (Jsoup elementSiblingIndex)."""
    p = el.parent
    if p is None:
        return 0
    i = 0
    for c in p.children:
        if c is el:
            return i
        if isinstance(c, Element):
            i += 1
    return 0


def _nth_matches(arg: str, idx1: int) -> bool:
    """CSS an+b matching for a 1-based child index."""
    arg = arg.strip().lower()
    if arg == "odd":
        return idx1 % 2 == 1
    if arg == "even":
        return idx1 % 2 == 0
    m = _NTH_RE.match(arg)
    if not m:
        return False
    if m.group("c") is not None:
        return idx1 == int(m.group("c"))
    a_s = m.group("a")
    a = 1 if a_s in ("", "+") else (-1 if a_s == "-" else int(a_s))
    b = int(m.group("b").replace(" ", "")) if m.group("b") else 0
    if a == 0:
        return idx1 == b
    k, rem = divmod(idx1 - b, a)
    return rem == 0 and k >= 0


class _Compound:
    __slots__ = ("tag", "ids", "classes", "attrs", "pseudos")

    def __init__(self):
        self.tag: Optional[str] = None
        self.ids: List[str] = []
        self.classes: List[str] = []
        self.attrs: List[tuple] = []  # (name, op, value) op in {None,'=','^=','$=','*='}
        self.pseudos: List[tuple] = []  # (name, arg)

    def matches(self, el: Element) -> bool:
        if self.tag and self.tag != "*" and el.tag != self.tag:
            return False
        for i in self.ids:
            if el.id() != i:
                return False
        for c in self.classes:
            if c not in el.class_names():
                return False
        for name, op, val in self.attrs:
            if not el.has_attr(name):
                return False
            if op is None:
                continue
            v = el.attrs.get(name.lower(), "")
            if op == "=" and v != val:
                return False
            if op == "^=" and not v.startswith(val):
                return False
            if op == "$=" and not v.endswith(val):
                return False
            if op == "*=" and val not in v:
                return False
        for name, arg in self.pseudos:
            if not self._pseudo_matches(el, name, arg):
                return False
        return True

    @staticmethod
    def _pseudo_matches(el: Element, name: str, arg: Optional[str]) -> bool:
        if name in ("eq", "lt", "gt"):
            try:
                n = int((arg or "").strip())
            except ValueError:
                return False
            idx = _sibling_index(el)
            return (
                idx == n if name == "eq" else idx < n if name == "lt" else idx > n
            )
        if name == "first-child":
            return _sibling_index(el) == 0
        if name == "last-child":
            p = el.parent
            return p is None or el is p.child_elements()[-1]
        if name == "nth-child":
            return _nth_matches(arg or "", _sibling_index(el) + 1)
        if name == "contains":
            return (arg or "").strip().lower() in el.text().lower()
        if name == "not":
            return not _parse_compound((arg or "").strip()).matches(el)
        if name == "has":
            sub = (arg or "").strip()
            return bool(sub) and bool(_select(el, sub, include_self=False))
        raise ValueError(f"unsupported css pseudo-class :{name}")


def _parse_compound(s: str) -> _Compound:
    comp = _Compound()
    pos = 0
    while pos < len(s):
        m = _SIMPLE_RE.match(s, pos)
        if not m:
            raise ValueError(f"unsupported css selector fragment: {s[pos:]!r}")
        if m.group("tag"):
            comp.tag = m.group("tag").lower()
        elif m.group("id"):
            comp.ids.append(m.group("id"))
        elif m.group("cls"):
            comp.classes.append(m.group("cls"))
        elif m.group("attr"):
            op = m.group("op")
            comp.attrs.append(
                (m.group("attr").lower(), op if op else None, m.group("val") or "")
            )
        elif m.group("pseudo"):
            comp.pseudos.append((m.group("pseudo").lower(), m.group("parg")))
        pos = m.end()
    return comp


def _tokenize_selector(sel: str) -> List[str]:
    """Split into compound / combinator tokens; '>' '+' '~' and spaces
    separate ONLY at bracket/paren depth 0 (so ':nth-child(2n+1)' and
    '[href*=x]' stay whole)."""
    toks: List[str] = []
    buf = ""
    depth = 0
    for ch in sel:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if depth == 0 and ch in ">+~":
            if buf.strip():
                toks.append(buf.strip())
            toks.append(ch)
            buf = ""
        elif depth == 0 and ch.isspace():
            if buf.strip():
                toks.append(buf.strip())
                toks.append(" ")
            buf = ""
        else:
            buf += ch
    if buf.strip():
        toks.append(buf.strip())
    return toks


def _parse_selector(sel: str) -> List[tuple]:
    """-> list of (combinator, compound); combinator of first is None,
    then ' ' (descendant), '>' (child), '+' (adjacent sibling) or
    '~' (general sibling)."""
    out: List[tuple] = []
    comb: Optional[str] = None
    for t in _tokenize_selector(sel.strip()):
        if t in (">", "+", "~", " "):
            comb = t if t != " " else (comb or " ")
            continue
        out.append((comb if out else None, _parse_compound(t)))
        comb = None
    return out


def _matches_chain(el: Element, chain: List[tuple], root: Element) -> bool:
    comb, comp = chain[-1]
    if not comp.matches(el):
        return False
    if len(chain) == 1:
        return True
    rest = chain[:-1]
    if comb == ">":
        p = el.parent
        return (
            p is not None
            and isinstance(p, Element)
            and _in_scope(p, root)
            and _matches_chain(p, rest, root)
        )
    if comb in ("+", "~"):
        p = el.parent
        if p is None:
            return False
        sibs = p.child_elements()
        i = sibs.index(el)
        if comb == "+":
            return i > 0 and _matches_chain(sibs[i - 1], rest, root)
        return any(_matches_chain(s, rest, root) for s in sibs[:i])
    # descendant
    p = el.parent
    while p is not None and isinstance(p, Element) and _in_scope(p, root):
        if _matches_chain(p, rest, root):
            return True
        p = p.parent
    return False


def _in_scope(el: Element, root: Element) -> bool:
    n: Optional[Node] = el
    while n is not None:
        if n is root:
            return True
        n = n.parent
    return False


def _split_groups(css: str) -> List[str]:
    """Split a selector group on ',' at bracket/paren depth 0 only
    (commas inside :contains(...) / [attr=...] stay intact)."""
    parts: List[str] = []
    buf = ""
    depth = 0
    for ch in css:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(buf)
            buf = ""
        else:
            buf += ch
    parts.append(buf)
    return parts


def _select(root: Element, css: str, include_self: bool = True) -> List[Element]:
    chains = [_parse_selector(part) for part in _split_groups(css) if part.strip()]
    out: List[Element] = []
    for el in root.elements():
        if el is root and not include_self:
            continue
        for chain in chains:
            if _matches_chain(el, chain, root):
                out.append(el)
                break
    return out
