"""The one code generator: straight-line Python with int literals, compiled afresh.

`_generated` compiles a function from its body lines; `_sum_source` writes a
sum of int multiples of factors, each coefficient through `_literal`, which
refuses anything whose type is not exactly int, so generated source holds no
repr of an arbitrary object.  The same sum of monomials is the text of
`QuadForm.equation_text`.  `quadrics` builds a form's `value` with it,
`orbits` the solve of the orbit seeds' minimal vectors, and
``CartanData.ascent`` the ascent walk of a type from `_ascent_source`.  That
property imports this module on a type's first walk, so a process that only
builds Cartan data loads none of it.  Each of these is compiled once per type
and kept on its `CartanData`; nothing is kept at module level.
"""

from __future__ import annotations


def _literal(v) -> str:
    """The Python source of the int v; TypeError for anything else, so that
    generated source holds no repr of an arbitrary object."""
    if type(v) is not int:
        raise TypeError(f"a generated coefficient must be an int, not {type(v).__name__}")
    return str(v)


def _sum_source(terms) -> str:
    """sum c * e over (c, e) in terms as text, Python source or an equation's side: c an
    int, e a factor or None for the constant term c.  Zero terms are left out; "0" if all are."""
    out = []
    for c, e in terms:
        text = _literal(c).lstrip("-")
        if not c:
            continue
        if e is not None:
            text = e if text == "1" else f"{text}*{e}"
        out.append(("- " if c < 0 else "+ ") + text)
    if not out:
        return "0"
    text = " ".join(out)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def _generated(name: str, params: str, lines, **names):
    """The function ``def name(params)`` with the body ``lines``, compiled afresh.

    ``names`` are its globals (besides the builtins).  Generated code lives as
    long as the object that asked for it: a form's ``value`` on the form, and
    a type's ascent walk and x_h solve on its `CartanData`, which also keeps
    the type's two forms (`cartan._kept`).  So each is compiled once per form
    or per type; nothing is cached at module level.
    """
    source = f"def {name}({params}):\n" + "".join(f"    {line}\n" for line in lines)
    scope = dict(names)
    exec(compile(source, f"<generated {name}>", "exec"), scope)
    return scope[name]


def _ascent_source(cd) -> list[str]:
    """The body of ``ascent(x, h, visit)``, the walk of `cartan.ascend` for cd from the
    minimal point x and its h, a list, written out from the sparse view of A.

    Each popped point's h is unpacked into h0 .. h{n-1}.  Then, for each k0 in
    turn, ``if h_k0 < 0:`` holds the tests of the neighbours i > k0 of the
    sparse row k0, each with its entries of A as literals, and ends the point;
    else ``if h_k0:`` steps at k0.  A step at i is y = x with h_i added at i,
    and g = h with h_i negated and one line per entry of the sparse column i.
    The source is linear in n plus the number of edges of the diagram.
    """
    rows, cols = cd.sparse
    A = cd.A
    hs = [f"h{i}" for i in range(cd.n)]

    def step(i, pad):
        hi = hs[i]
        moved = [f"g[{k}] += {_sum_source([(-a, hi)])}" for k, a in cols[i]]
        body = [
            "y = list(x)",
            f"y[{i}] += {hi}",
            "y = tuple(y)",
            "append(y)",
            "if visit is not None:",
            f"    visit(x, {i}, y)",
            "g = h.copy()",
            f"g[{i}] = -{hi}",
            *moved,
            "push((y, g))",
        ]
        return [pad + line for line in body]

    lines = [
        "points = [x]",
        "stack = [(x, h)]",
        "append, push, pop = points.append, stack.append, stack.pop",
        "while stack:",
        "    x, h = pop()",
        f"    {', '.join(hs)}, = h",
    ]
    for k0 in range(cd.n):
        lines.append(f"    if {hs[k0]} < 0:")
        for i, a in rows[k0]:
            if i > k0:
                clear = [f"{hs[i]} > 0", f"{hs[k0]} >= {_sum_source([(a, hs[i])])}"]
                clear += [f"{hs[k]} >= {_sum_source([(A[k][i], hs[i])])}" for k in range(k0 + 1, i)]
                lines.append(f"        if {' and '.join(clear)}:")
                lines.extend(step(i, " " * 12))
        lines.append("        continue")
        lines.append(f"    if {hs[k0]}:")
        lines.extend(step(k0, " " * 8))
    lines.append("return points")
    return lines
