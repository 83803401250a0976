"""Value pools for the TPC-D data generator (DBGEN equivalents).

The lists follow the TPC-D 1.x specification's seed text where it
matters for the queries (segments, priorities, ship modes, part type
words, region/nation names); purely cosmetic strings (addresses,
comments) are synthesised.
"""

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]

#: nation -> region index, the 25 nations of the TPC-D spec
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]

MARKET_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY",
                   "HOUSEHOLD"]

ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                    "5-LOW"]

SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]

SHIP_INSTRUCTIONS = ["DELIVER IN PERSON", "COLLECT COD", "NONE",
                     "TAKE BACK RETURN"]

#: part type = one word from each list ("PROMO BURNISHED BRASS")
TYPE_SYLLABLE_1 = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY",
                   "PROMO"]
TYPE_SYLLABLE_2 = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED",
                   "BRUSHED"]
TYPE_SYLLABLE_3 = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"]

CONTAINERS_1 = ["SM", "LG", "MED", "JUMBO", "WRAP"]
CONTAINERS_2 = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"]

#: colours used in part names (Q9 selects parts whose name contains a
#: colour word, e.g. "green")
PART_COLOURS = ["almond", "antique", "aquamarine", "azure", "beige",
                "bisque", "black", "blanched", "blue", "blush", "brown",
                "burlywood", "burnished", "chartreuse", "chiffon",
                "chocolate", "coral", "cornflower", "cornsilk", "cream",
                "cyan", "dark", "deep", "dim", "dodger", "drab", "firebrick",
                "floral", "forest", "frosted", "gainsboro", "ghost",
                "goldenrod", "green", "grey", "honeydew", "hot", "indian",
                "ivory", "khaki", "lace", "lavender", "lawn", "lemon",
                "light", "lime", "linen", "magenta", "maroon", "medium",
                "metallic", "midnight", "mint", "misty", "moccasin",
                "navajo", "navy", "olive", "orange", "orchid", "pale",
                "papaya", "peach", "peru", "pink", "plum", "powder",
                "puff", "purple", "red", "rose", "rosy", "royal", "saddle",
                "salmon", "sandy", "seashell", "sienna", "sky", "slate",
                "smoke", "snow", "spring", "steel", "tan", "thistle",
                "tomato", "turquoise", "violet", "wheat", "white", "yellow"]


def clerk_name(index):
    """TPC-D clerk name format."""
    return "Clerk#%09d" % index


def supplier_name(index):
    return "Supplier#%09d" % index


def customer_name(index):
    return "Customer#%09d" % index


def phone(nation_index, sequence):
    """``NN-XXX-XXX-XXXX`` phone, nation-coded like the spec."""
    return "%02d-%03d-%03d-%04d" % (
        10 + nation_index, 100 + sequence % 900,
        100 + (sequence * 7) % 900, 1000 + (sequence * 13) % 9000)
