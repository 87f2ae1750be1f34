-- SmallBank as SQL: the text of SmallBankSql() (src/workloads/sql_texts.cc),
-- kept as a file so the mvrcdet golden cases exercise the SQL front end.

TABLE Account(Name, CustomerId, PRIMARY KEY(Name));
TABLE Savings(CustomerId, Balance, PRIMARY KEY(CustomerId));
TABLE Checking(CustomerId, Balance, PRIMARY KEY(CustomerId));
FOREIGN KEY f_savings: Account(CustomerId) REFERENCES Savings;
FOREIGN KEY f_checking: Account(CustomerId) REFERENCES Checking;

PROGRAM Amalgamate(:N1, :N2):
  SELECT CustomerId INTO :x1 FROM Account WHERE Name = :N1;               -- q1
  SELECT CustomerId INTO :x2 FROM Account WHERE Name = :N2;               -- q2
  UPDATE Savings SET Balance = 0 WHERE CustomerId = :x1
    RETURNING Balance INTO :a;                                            -- q3
  UPDATE Checking SET Balance = 0 WHERE CustomerId = :x1
    RETURNING Balance INTO :b;                                            -- q4
  UPDATE Checking SET Balance = Balance + :a + :b WHERE CustomerId = :x2; -- q5
COMMIT;

PROGRAM Balance(:N):
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;                 -- q6
  SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;              -- q7
  SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x;             -- q8
COMMIT;

PROGRAM DepositChecking(:N, :V):
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;                 -- q9
  UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :x;       -- q10
COMMIT;

PROGRAM TransactSavings(:N, :V):
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;                 -- q11
  UPDATE Savings SET Balance = Balance + :V WHERE CustomerId = :x;        -- q12
COMMIT;

PROGRAM WriteCheck(:N, :V):
  SELECT CustomerId INTO :x FROM Account WHERE Name = :N;                 -- q13
  SELECT Balance INTO :a FROM Savings WHERE CustomerId = :x;              -- q14
  SELECT Balance INTO :b FROM Checking WHERE CustomerId = :x;             -- q15
  UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :x;       -- q16
COMMIT;
