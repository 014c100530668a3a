import pytest

import seplat


@pytest.fixture(scope="session")
def mo2():
    return seplat.build_mo(2)


@pytest.fixture(scope="session")
def mo3():
    return seplat.build_mo(3)


@pytest.fixture(scope="session")
def mo1():
    return seplat.build_mo(1)


@pytest.fixture(scope="session")
def b3():
    return seplat.build_boolean(3)


@pytest.fixture(scope="session")
def two():
    return seplat.build_two()


@pytest.fixture(scope="session")
def prod22(mo2):
    lat, om = mo2
    return seplat.aerts_product_sharp(lat, om, lat, om)


@pytest.fixture(scope="session")
def prod23(mo2, mo3):
    l2, o2 = mo2
    l3, o3 = mo3
    return seplat.aerts_product_sharp(l2, o2, l3, o3)


@pytest.fixture(scope="session")
def mo17():
    return seplat.build_mo(17)


@pytest.fixture(scope="session")
def prod_wide(mo17, mo1):
    """MO(17) x MO(1) by the sharp route: 68 pair atoms, wider than a
    machine word."""
    return seplat.aerts_product_sharp(*mo17, *mo1)


@pytest.fixture(scope="session")
def aut_mo2(mo2):
    return seplat.enumerate_automorphisms(mo2[0])


@pytest.fixture(scope="session")
def aut_mo3(mo3):
    return seplat.enumerate_automorphisms(mo3[0])


@pytest.fixture(scope="session")
def aut_prod22(prod22):
    return seplat.enumerate_automorphisms(prod22.base)
