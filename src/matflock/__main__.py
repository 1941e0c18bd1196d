"""``python -m matflock`` and the ``matflock`` console script.

Both run ``matflock.cli`` as ``python -m matflock.cli`` does, not as an
import, so each command loads only the modules its handler uses.
"""

import runpy


def main():
    runpy.run_module("matflock.cli", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
