import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_in_src():
    # Contracts must raise; ``python -O`` strips assert statements.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# Where numpy generators may be built: every stream of the program comes
# from image_space (keyed by seed and index); random_classifier draws its
# label table from default_rng.
RNG_ALLOWED = {("classifiers.py", "random_classifier", "default_rng")}


def rng_constructions(path):
    """(file, enclosing function, name) of every ``np.random.<name>(...)``
    call in one source file."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Attribute)
                    and func.value.attr == "random"):
                found.append((path.name, function, func.attr))
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_generators_built_only_in_image_space():
    found = [site for path in sorted(SRC.rglob("*.py"))
             for site in rng_constructions(path)
             if path.name != "image_space.py"]
    assert set(found) <= RNG_ALLOWED, found
    built = rng_constructions(SRC / "robustness_envelope" / "image_space.py")
    assert {name for _, _, name in built} == {"Philox", "Generator"}


def referenced_names(node):
    """The names a node reads: a bare name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names]
    return []


def files_referencing(name):
    return {path.name for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if name in referenced_names(node)}


def test_one_enumeration_bound():
    # The 2^20 bound is read only in image_space, and no function takes a
    # bound of its own (the dense oracle checks MATRIX_CAP itself).
    readers, cap_params = files_referencing("DEFAULT_ENUMERATION_CAP"), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                if any(a.arg == "cap" for a in
                       args.posonlyargs + args.args + args.kwonlyargs):
                    cap_params.append(
                        f"{path.name}:{getattr(node, 'name', 'lambda')}")
    assert readers == {"image_space.py"}
    assert cap_params == []


def test_one_certified_site():
    # Theorem 1 is decided in hamming.interior_ratio_holds alone; the other
    # certified comparison is the Hoeffding sweep in exactmath.
    assert files_referencing("compare_scaled_exp") == {"exactmath.py",
                                                      "hamming.py"}


def test_hamming_alone_decides_the_graph_bounds():
    # Theorem 1's interior ratio and Harper's bound are decided in hamming
    # alone: no other module reads its packing limits, its packed
    # expansion, theorem 1's verdict or Harper's bound (exports aside).
    for name in ("CHUNK", "PACKED_BITS", "expansion_sizes",
                 "interior_ratio_holds", "harper_rhs"):
        assert files_referencing(name) - {"__init__.py"} == {"hamming.py"}, name


def test_every_error_class_is_raised():
    # A deletion that leaves its exception class behind fails here.
    tree = ast.parse((SRC / "robustness_envelope" / "errors.py").read_text())
    family = {"EnvelopeError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in family
                for base in node.bases):
            family.add(node.name)
    defined = family - {"EnvelopeError"}
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert defined and sorted(defined - raised) == []


def source_tree(name):
    path = SRC / "robustness_envelope" / name
    return ast.parse(path.read_text(), filename=str(path))


def test_hamming_owns_the_packed_layout():
    # verify reads hamming's public names only, and the packed subset rows
    # are expanded at one call site (_expand_bits given a slot count).
    private = sorted({node.attr for node in ast.walk(source_tree("verify.py"))
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "hamming"
                      and node.attr.startswith("_")})
    assert private == []
    packed_calls = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and "_expand_bits" in referenced_names(node.func)
                    and (len(node.args) > 3
                         or any(k.arg == "slots" for k in node.keywords))):
                packed_calls.append(f"{path.name}:{node.lineno}")
    assert len(packed_calls) == 1, packed_calls


def test_reductions_have_one_entry_point():
    # Every norm reduction is decided by robustness.first_reduction_violation.
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = referenced_names(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            found |= {f"{path.name}:{name}" for name in names
                      if name.startswith("reduction_check_")}
    assert found == set()
