"""SQL inputs for the benchmark: the paper's three benchmarks, their scaled
families, and seeded random programs.

Every input is a `Sql` value: schema declarations plus an ordered list of
programs, each one `PROGRAM ... COMMIT;` block. The daemon only ever sees
the generated text; the facts the output checks rely on (Figures 6-7, the
k^2 edge law of replicated TPC-C, Auction(n) robustness) are derived here
from the construction, never from the daemon.
"""

import random
import re
from dataclasses import dataclass, field


@dataclass
class Sql:
    name: str
    schema: str
    programs: list = field(default_factory=list)  # [(program name, text)]

    def text(self):
        """The whole input as one SQL text."""
        return self.schema + "\n" + "\n".join(t for _, t in self.programs)

    def program_names(self):
        return [n for n, _ in self.programs]


def _program(name, params, body):
    return "PROGRAM %s(%s):\n%sCOMMIT;\n" % (name, params, body)


# --- SmallBank (Figure 9) ---------------------------------------------------

SMALLBANK_SCHEMA = """\
TABLE Account(Name, CustomerId, PRIMARY KEY(Name));
TABLE Savings(CustomerId, Balance, PRIMARY KEY(CustomerId));
TABLE Checking(CustomerId, Balance, PRIMARY KEY(CustomerId));
FOREIGN KEY f_savings: Account(CustomerId) REFERENCES Savings;
FOREIGN KEY f_checking: Account(CustomerId) REFERENCES Checking;
"""

SMALLBANK_PROGRAMS = [
    ("Amalgamate", ":N1, :N2", """\
  SELECT CustomerId INTO :x1 FROM Account WHERE Name = :N1;
  SELECT CustomerId INTO :x2 FROM Account WHERE Name = :N2;
  UPDATE Savings SET Balance = 0 WHERE CustomerId = :x1 RETURNING Balance INTO :a;
  UPDATE Checking SET Balance = 0 WHERE CustomerId = :x1 RETURNING Balance INTO :b;
  UPDATE Checking SET Balance = Balance + :a + :b WHERE CustomerId = :x2;
"""),
    ("Balance", ":N", """\
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
  SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;
  SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x;
"""),
    ("DepositChecking", ":N, :V", """\
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
  UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x;
"""),
    ("TransactSavings", ":N, :V", """\
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
  UPDATE Savings SET Balance = Balance + :V WHERE CustomerId = :x;
"""),
    ("WriteCheck", ":N, :V", """\
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;
  SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;
  SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x;
  UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :x;
"""),
]

# --- Auction (Figure 1) and Auction(n) (section 7.3) ------------------------

def _auction_pair(suffix, bids):
    find = _program("FindBids" + suffix, ":B, :T", """\
  UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
  SELECT bid FROM %s WHERE bid >= :T;
""" % bids)
    place = _program("PlaceBid" + suffix, ":B, :V", """\
  UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
  SELECT bid INTO :C FROM %s WHERE buyerId = :B;
  IF :C < :V THEN
    UPDATE %s SET bid = :V WHERE buyerId = :B;
  END IF;
  INSERT INTO Log VALUES (:logId, :B, :V);
""" % (bids, bids))
    return [("FindBids" + suffix, find), ("PlaceBid" + suffix, place)]


AUCTION_BASE_SCHEMA = """\
TABLE Buyer(id, calls, PRIMARY KEY(id));
TABLE Log(id, buyerId, bid, PRIMARY KEY(id));
FOREIGN KEY f2: Log(buyerId) REFERENCES Buyer;
"""


def auction():
    schema = AUCTION_BASE_SCHEMA + (
        "TABLE Bids(buyerId, bid, PRIMARY KEY(buyerId));\n"
        "FOREIGN KEY f1: Bids(buyerId) REFERENCES Buyer;\n")
    return Sql("auction", schema, _auction_pair("", "Bids"))


def auction_n(n):
    """Auction(n): one Bids_i relation and a FindBids_i / PlaceBid_i pair per
    item, sharing Buyer and Log (2n programs, robust under attr+fk)."""
    schema = AUCTION_BASE_SCHEMA
    programs = []
    for i in range(1, n + 1):
        schema += ("TABLE Bids%d(buyerId, bid, PRIMARY KEY(buyerId));\n"
                   "FOREIGN KEY f1_%d: Bids%d(buyerId) REFERENCES Buyer;\n" % (i, i, i))
        programs += _auction_pair(str(i), "Bids%d" % i)
    return Sql("auction%d" % n, schema, programs)


# --- TPC-C (Figures 12-16) --------------------------------------------------

TPCC_SCHEMA = """\
TABLE Warehouse(w_id, w_name, w_street_1, w_street_2, w_city, w_state, w_zip,
                w_tax, w_ytd, PRIMARY KEY(w_id));
TABLE District(d_id, d_w_id, d_name, d_street_1, d_street_2, d_city, d_state,
               d_zip, d_tax, d_ytd, d_next_o_id, PRIMARY KEY(d_id, d_w_id));
TABLE Customer(c_id, c_d_id, c_w_id, c_first, c_middle, c_last, c_street_1,
               c_street_2, c_city, c_state, c_zip, c_phone, c_since, c_credit,
               c_credit_lim, c_discount, c_balance, c_ytd_payment,
               c_payment_cnt, c_delivery_cnt, c_data,
               PRIMARY KEY(c_id, c_d_id, c_w_id));
TABLE History(h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date, h_amount,
              h_data);
TABLE New_Order(no_o_id, no_d_id, no_w_id, PRIMARY KEY(no_o_id, no_d_id, no_w_id));
TABLE Orders(o_id, o_d_id, o_w_id, o_c_id, o_entry_id, o_carrier_id, o_ol_cnt,
             o_all_local, PRIMARY KEY(o_id, o_d_id, o_w_id));
TABLE Order_Line(ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_supply_w_id,
                 ol_delivery_d, ol_quantity, ol_amount, ol_dist_info,
                 PRIMARY KEY(ol_o_id, ol_d_id, ol_w_id, ol_number));
TABLE Item(i_id, i_im_id, i_name, i_price, i_data, PRIMARY KEY(i_id));
TABLE Stock(s_i_id, s_w_id, s_quantity, s_dist_01, s_dist_02, s_dist_03,
            s_dist_04, s_dist_05, s_dist_06, s_dist_07, s_dist_08, s_dist_09,
            s_dist_10, s_ytd, s_order_cnt, s_remote_cnt, s_data,
            PRIMARY KEY(s_i_id, s_w_id));
FOREIGN KEY f1: District(d_w_id) REFERENCES Warehouse;
FOREIGN KEY f2: Customer(c_d_id, c_w_id) REFERENCES District;
FOREIGN KEY f3: History(h_c_id, h_c_d_id, h_c_w_id) REFERENCES Customer;
FOREIGN KEY f4: History(h_d_id, h_w_id) REFERENCES District;
FOREIGN KEY f5: New_Order(no_o_id, no_d_id, no_w_id) REFERENCES Orders;
FOREIGN KEY f6: Orders(o_d_id, o_w_id) REFERENCES District;
FOREIGN KEY f7: Orders(o_c_id, o_d_id, o_w_id) REFERENCES Customer;
FOREIGN KEY f8: Order_Line(ol_o_id, ol_d_id, ol_w_id) REFERENCES Orders;
FOREIGN KEY f9: Order_Line(ol_i_id) REFERENCES Item;
FOREIGN KEY f10: Order_Line(ol_supply_w_id) REFERENCES Warehouse;
FOREIGN KEY f11: Stock(s_i_id) REFERENCES Item;
FOREIGN KEY f12: Stock(s_w_id) REFERENCES Warehouse;
"""

TPCC_PROGRAMS = [
    ("Delivery", ":w_id, :o_carrier_id, :datetime", """\
  LOOP
    SELECT no_o_id INTO :no_o_id FROM New_Order
      WHERE no_d_id = :d_id AND no_w_id = :w_id;
    DELETE FROM New_Order
      WHERE no_o_id = :no_o_id AND no_d_id = :d_id AND no_w_id = :w_id;
    SELECT o_c_id INTO :c_id FROM Orders
      WHERE o_id = :no_o_id AND o_d_id = :d_id AND o_w_id = :w_id;
    UPDATE Orders SET o_carrier_id = :o_carrier_id
      WHERE o_id = :no_o_id AND o_d_id = :d_id AND o_w_id = :w_id;
    UPDATE Order_Line SET ol_delivery_d = :datetime
      WHERE ol_o_id = :no_o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
    SELECT ol_amount FROM Order_Line
      WHERE ol_o_id = :no_o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
    UPDATE Customer SET c_balance = c_balance + :ol_total,
                        c_delivery_cnt = c_delivery_cnt + 1
      WHERE c_id = :c_id AND c_d_id = :d_id AND c_w_id = :w_id;
  END LOOP;
"""),
    ("NewOrder", ":w_id, :d_id, :c_id, :datetime, :o_ol_cnt, :o_all_local", """\
  SELECT c_credit, c_discount, c_last FROM Customer
    WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_id = :c_id;
  SELECT w_tax FROM Warehouse WHERE w_id = :w_id;
  UPDATE District SET d_next_o_id = d_next_o_id + 1
    WHERE d_id = :d_id AND d_w_id = :w_id
    RETURNING d_next_o_id, d_tax INTO :o_id, :d_tax;
  INSERT INTO Orders VALUES (:o_id, :d_id, :w_id, :c_id, :datetime,
                             :o_carrier_id, :o_ol_cnt, :o_all_local);
  INSERT INTO New_Order VALUES (:o_id, :d_id, :w_id);
  LOOP
    SELECT i_price, i_name, i_data FROM Item WHERE i_id = :ol_i_id;
    UPDATE Stock SET s_quantity = :new_quantity, s_ytd = :new_ytd,
                     s_order_cnt = :new_order_cnt,
                     s_remote_cnt = :new_remote_cnt
      WHERE s_i_id = :ol_i_id AND s_w_id = :ol_supply_w_id
      RETURNING s_quantity, s_ytd, s_order_cnt, s_remote_cnt, s_data,
                s_dist_01, s_dist_02, s_dist_03, s_dist_04, s_dist_05,
                s_dist_06, s_dist_07, s_dist_08, s_dist_09, s_dist_10
      INTO :s_quantity, :s_ytd, :s_order_cnt, :s_remote_cnt, :s_data,
           :s_dist_01, :s_dist_02, :s_dist_03, :s_dist_04, :s_dist_05,
           :s_dist_06, :s_dist_07, :s_dist_08, :s_dist_09, :s_dist_10;
    INSERT INTO Order_Line VALUES (:o_id, :d_id, :w_id, :ol_number,
                                   :ol_i_id, :ol_supply_w_id,
                                   :ol_delivery_d, :ol_quantity,
                                   :ol_amount, :ol_dist_info);
  END LOOP;
"""),
    ("OrderStatus", ":w_id, :d_id, :c_id, :c_last", """\
  IF ? THEN
    SELECT c_balance, c_first, c_middle, c_id
      INTO :c_balance, :c_first, :c_middle, :c_id
      FROM Customer
      WHERE c_last = :c_last AND c_d_id = :d_id AND c_w_id = :w_id;
  ELSE
    SELECT c_balance, c_first, c_middle, c_last FROM Customer
      WHERE c_id = :c_id AND c_d_id = :d_id AND c_w_id = :w_id;
  END IF;
  SELECT o_id, o_carrier_id, o_entry_id INTO :o_id, :o_carrier_id, :entdate
    FROM Orders
    WHERE o_w_id = :w_id AND o_d_id = :d_id AND o_c_id = :c_id;
  SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d
    FROM Order_Line
    WHERE ol_o_id = :o_id AND ol_d_id = :d_id AND ol_w_id = :w_id;
"""),
    ("Payment", ":w_id, :d_id, :c_id, :c_last, :h_amount, :datetime, :h_data, :c_new_data", """\
  UPDATE Warehouse SET w_ytd = w_ytd + :h_amount WHERE w_id = :w_id
    RETURNING w_street_1, w_street_2, w_city, w_state, w_zip, w_name
    INTO :w_street_1, :w_street_2, :w_city, :w_state, :w_zip, :w_name;
  UPDATE District SET d_ytd = d_ytd + :h_amount
    WHERE d_w_id = :w_id AND d_id = :d_id
    RETURNING d_street_1, d_street_2, d_city, d_state, d_zip, d_name
    INTO :d_street_1, :d_street_2, :d_city, :d_state, :d_zip, :d_name;
  IF ? THEN
    SELECT c_id INTO :c_id FROM Customer
      WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_last = :c_last;
  END IF;
  UPDATE Customer SET c_balance = c_balance - :h_amount,
                      c_ytd_payment = c_ytd_payment + :h_amount,
                      c_payment_cnt = :new_payment_cnt
    WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_id = :c_id
    RETURNING c_first, c_middle, c_last, c_street_1, c_street_2, c_city,
              c_state, c_zip, c_phone, c_credit, c_credit_lim, c_discount,
              c_balance, c_since
    INTO :c_first, :c_middle, :c_last, :c_street_1, :c_street_2, :c_city,
         :c_state, :c_zip, :c_phone, :c_credit, :c_credit_lim, :c_discount,
         :c_balance, :c_since;
  IF ? THEN
    SELECT c_data INTO :c_data FROM Customer
      WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_id = :c_id;
    UPDATE Customer SET c_data = :c_new_data
      WHERE c_w_id = :w_id AND c_d_id = :d_id AND c_id = :c_id;
  END IF;
  INSERT INTO History VALUES (:c_id, :d_id, :w_id, :d_id, :w_id,
                              :datetime, :h_amount, :h_data);
"""),
    ("StockLevel", ":w_id, :d_id, :threshold", """\
  SELECT d_next_o_id INTO :o_id FROM District
    WHERE d_w_id = :w_id AND d_id = :d_id;
  SELECT ol_i_id FROM Order_Line
    WHERE ol_w_id = :w_id AND ol_d_id = :d_id AND ol_o_id < :o_id
      AND ol_o_id >= :o_id - 20;
  SELECT s_i_id FROM Stock
    WHERE s_w_id = :w_id AND s_quantity < :threshold;
"""),
]

ABBREVIATIONS = {
    "Amalgamate": "Am", "Balance": "Bal", "DepositChecking": "DC",
    "TransactSavings": "TS", "WriteCheck": "WC",
    "Delivery": "Del", "NewOrder": "NO", "OrderStatus": "OS", "Payment": "Pay",
    "StockLevel": "SL", "FindBids": "FB", "PlaceBid": "PB",
}


def smallbank():
    return Sql("smallbank", SMALLBANK_SCHEMA,
               [(n, _program(n, p, b)) for n, p, b in SMALLBANK_PROGRAMS])


def tpcc():
    return tpcc_k(1)


def tpcc_k(k):
    """TPC-C replicated k times under renamed programs over one schema.
    Algorithm 1 is pairwise, so this has exactly k^2 times TPC-C's edges and
    counterflow edges, and k times its unfolded programs."""
    programs = []
    for r in range(1, k + 1):
        suffix = "" if k == 1 else "_r%d" % r
        programs += [(n + suffix, _program(n + suffix, p, b)) for n, p, b in TPCC_PROGRAMS]
    return Sql("tpcc" if k == 1 else "tpcc_x%d" % k, TPCC_SCHEMA, programs)


# --- Seeded random programs -------------------------------------------------

RANDOM_TABLES = 6
RANDOM_ATTRS = 4  # a0 is the primary key


def random_schema():
    lines = ["TABLE R%d(a0, a1, a2, a3, PRIMARY KEY(a0));" % t for t in range(RANDOM_TABLES)]
    return "\n".join(lines) + "\n"


def _random_statement(rng, t_used):
    t = rng.randrange(RANDOM_TABLES)
    t_used.add(t)
    a = 1 + rng.randrange(RANDOM_ATTRS - 1)
    b = 1 + (a % (RANDOM_ATTRS - 1))
    kind = rng.randrange(6)
    if kind == 0:
        return "SELECT a%d INTO :v%d FROM R%d WHERE a0 = :k%d;" % (a, t, t, t)
    if kind == 1:
        return "SELECT a%d FROM R%d WHERE a%d >= :p;" % (a, t, b)
    if kind == 2:
        return "UPDATE R%d SET a%d = a%d + 1 WHERE a0 = :k%d;" % (t, a, a, t)
    if kind == 3:
        return "UPDATE R%d SET a%d = :p WHERE a%d < :p;" % (t, a, b)
    if kind == 4:
        return "INSERT INTO R%d VALUES (:k%d, :p, :p, :p);" % (t, t)
    return "DELETE FROM R%d WHERE a0 = :k%d;" % (t, t)


def random_program(rng, name):
    """Four straight-line statements plus one IF and one LOOP, each holding
    one statement: at most 4 unfolded programs of 5-7 statements."""
    used = set()
    body = ["  " + _random_statement(rng, used) for _ in range(4)]
    if_stmt = ["  IF ? THEN", "    " + _random_statement(rng, used), "  END IF;"]
    loop_stmt = ["  LOOP", "    " + _random_statement(rng, used), "  END LOOP;"]
    at = rng.randrange(len(body) + 1)
    body[at:at] = if_stmt
    at = rng.randrange(len(body) + 1)
    body[at:at] = loop_stmt
    return _program(name, ":p", "\n".join(body) + "\n")


def random_programs(seed, count, prefix="Rnd"):
    rng = random.Random(seed)
    names = ["%s%d" % (prefix, i) for i in range(count)]
    return Sql("random%d" % count, random_schema(),
               [(n, random_program(rng, n)) for n in names])


# --- Mutations --------------------------------------------------------------

# One predicate read per input family over an attribute its programs write:
# appending it to a program adds incident summary edges.
PROBES = {
    "smallbank": "SELECT Balance FROM Savings WHERE Balance >= :zz;",
    "tpcc": "SELECT w_ytd FROM Warehouse WHERE w_ytd >= :zz;",
    "auction": "SELECT calls FROM Buyer WHERE calls >= :zz;",
    "random": "SELECT a1 FROM R0 WHERE a2 >= :zz;",
}


def edge_preserving_variant(text):
    """Same statements under renamed parameters: every summary edge and the
    detector's view of the program are unchanged, so cached verdicts stay."""
    return re.sub(r":(\w)", r":z_\1", text)


def edge_changing_variant(text, family):
    """Appends the family's probe read: the program's incident edges change."""
    head, tail = text.rsplit("COMMIT;", 1)
    return head + "  " + PROBES[family] + "\nCOMMIT;" + tail
