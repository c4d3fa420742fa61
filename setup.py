"""Build script for the compiled search kernel.

The package works without the extension (the pure Python kernel is selected
at import time), so the build is optional: a missing compiler leaves a
working pure install.  The compiled kernel is what makes the exhaustive
searches comfortable at desk scale.  Build in place with:

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "cordant._kernel._speed",
            ["src/cordant/_kernel/_speed.c"],
            optional=True,
        )
    ]
)
