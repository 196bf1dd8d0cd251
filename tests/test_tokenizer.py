"""The fast HTML tokenizer against the html.parser reference.

`dom.parse` runs a regex tokenizer over a strict grammar and falls back
to html.parser for any document outside it, so a tree built on the fast
path must equal the html.parser tree node for node.
"""

import random

from webcollector_ray import dom
from webcollector_ray.synth import SynthSpec, page_row


def _shape(doc: dom.Document):
    """Every node of the tree, in document order: kind, tag, attribute
    items (in order), raw text or comment data; plus the doctype."""
    out = [("doctype", doc.doctype)]

    def walk(el, depth):
        for c in el.children:
            if isinstance(c, dom.Element):
                out.append((depth, "el", c.tag, tuple(c.attrs.items())))
                walk(c, depth + 1)
            elif isinstance(c, dom.TextNode):
                out.append((depth, "text", c.raw))
            else:
                out.append((depth, "comment", c.raw))

    walk(doc, 0)
    return out


_TAGS = ["div", "p", "span", "a", "B", "LI", "ul", "td", "tr", "h1", "img",
         "br", "title", "meta", "Body", "html", "head", "table", "iframe"]
_WORDS = ["alpha", "x &amp; y", "&lt;tag&gt;", "&copy", "café", "&#169;",
          "&#x41;z", "a&b", "  ", "\n", "2016-03-01 12:30:00", "&notit;",
          "\xa0nbsp\xa0", "&", "q?", "1 > 0"]
_VALUES = ['"v1"', "'v 2'", "bare", "a&amp;b", '"x>y"', "''", '""',
           "/p/q.html", "x/", "café", "'a\"b'", "&#65;"]
# constructs outside the fast grammar: each forces the html.parser path
_OUTSIDE = ["<a href=>", "</ div>", "<![CDATA[x]]>", "<a\xa0b>",
            "<!-- open", "<!foo>", "<a =x>", "<a b='x'c=d>", "<p\x0b>",
            "<a href==x>", "</>", "<script>never closed", "<x:y>",
            "<a b\u2003c>", "<script>x</\u017fcript>y</script>", "<a"]


def _attrs(rng):
    parts = []
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(["href", "HREF", "class", "id", "src", "data-x",
                           "disabled", "title"])
        r = rng.random()
        if r < 0.2:
            parts.append(name)  # valueless
        else:
            eq = rng.choice(["=", " = ", "= ", " ="])
            parts.append(name + eq + rng.choice(_VALUES))
    return "".join(rng.choice([" ", "  ", "\n", "\t"]) + p for p in parts)


def _soup(rng, budget):
    out = []
    for _ in range(budget):
        r = rng.random()
        if r < 0.25:
            out.append(rng.choice(_WORDS))
        elif r < 0.55:
            tag = rng.choice(_TAGS)
            close = rng.choice(["", ">", "/>", " />"])
            out.append(f"<{tag}{_attrs(rng)}{close or '>'}")
            if rng.random() < 0.5:
                out.append(_soup(rng, rng.randint(0, 3)))
            if rng.random() < 0.7:
                out.append(f"</{rng.choice([tag, tag.upper(), 'div'])}"
                           f"{rng.choice(['', ' ', chr(10)])}>")
        elif r < 0.62:
            body = rng.choice(["if (a < b) x();", "</p>", "<a href='s'>",
                               "1 --> 2", "&amp;", ""])
            t = rng.choice(["script", "style", "SCRIPT"])
            end = rng.choice([t, t.lower(), t.upper() + " "])
            out.append(f"<{t}{_attrs(rng)}>{body}</{end}>")
        elif r < 0.7:
            out.append("<!--" + rng.choice(["", " c ", "a -- b", "-", "<p>",
                                            "x--y--"]) + rng.choice(["-->", "-- >"]))
        elif r < 0.74:
            out.append(rng.choice(["<!DOCTYPE html>", "<!doctype HTML x>"]))
        elif r < 0.78:
            out.append(rng.choice(["<?xml version='1.0'?>", "<?pi>"]))
        elif r < 0.83:
            out.append(rng.choice(["<", "a < b", "<3", "< p", "<=", "<-"]))
        elif r < 0.86:
            out.append(rng.choice(_OUTSIDE))
        else:
            out.append(rng.choice(["<br/>", "<p/>", "<BR>", "<p>", "</p>",
                                   "<li>x", "</body>", "</html>", "</head>"]))
    return "".join(out)


def test_fast_tokenizer_matches_html_parser_differential():
    rng = random.Random(20261020)
    fast = fallback = 0
    for _ in range(4000):
        html = _soup(rng, rng.randint(1, 12))
        ref = dom.parse_reference(html, "http://h.test/d/p.html")
        got = dom.parse_fast(html, "http://h.test/d/p.html")
        if got is None:
            fallback += 1
            got = dom.parse(html, "http://h.test/d/p.html")
        else:
            fast += 1
        assert _shape(got) == _shape(ref), html
    # both paths must carry weight for the comparison to mean anything
    assert fast > 1000 and fallback > 200, (fast, fallback)


def test_outside_grammar_falls_back():
    for bad in _OUTSIDE:
        html = f"<p>x</p>{bad}<div>y</div>"
        assert dom.parse_fast(html) is None, bad
        assert _shape(dom.parse(html)) == _shape(dom.parse_reference(html))


def test_synth_pages_take_the_fast_path():
    """A grammar regression must fail here, not only slow the crawl."""
    spec = SynthSpec(num_sites=3, lists_per_site=3, shows_per_list=4)
    n = 0
    for gid in range(spec.total_pages):
        row = page_row(spec, gid)
        if row["content_type"] is None:
            continue  # redirect / server-error rows carry no body
        html = row["html"].decode("utf-8")
        doc = dom.parse_fast(html, row["url"])
        assert doc is not None, row["url"]
        assert _shape(doc) == _shape(dom.parse_reference(html, row["url"]))
        n += 1
    assert n == spec.num_sites * (spec.lists_per_site + spec.shows_per_site)
