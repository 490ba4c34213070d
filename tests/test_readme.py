"""The README's Library example runs against the package.

Run as a script (`python tests/test_readme.py`) from outside the checkout
after `pip install .`, it runs the example against the installed package
and fails if `stoplex` is imported from the checkout instead.
"""

import re
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    """The python code block of the README's "## Library" section."""
    section = (CHECKOUT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)\n```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    exec(compile(library_example(), "README.md", "exec"), {})


if __name__ == "__main__":
    import stoplex

    if Path(stoplex.__file__).resolve().is_relative_to(CHECKOUT):
        sys.exit(f"stoplex is imported from the checkout ({stoplex.__file__}), not the installed package")
    test_readme_library_example_runs()
    print(f"README Library example ran against {stoplex.__file__}")
